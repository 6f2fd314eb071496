package algo

import (
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// baseKeys are the spec keys baseOptions maps onto core.Options: every
// entry that plans through it reads them.
var baseKeys = []string{"eps64", "matcher", "multihop", "par", "ports"}

// init registers the full roster in the canonical display order: the
// Octopus core family, then the baselines, then the bound entry, each
// with the spec keys it reads (ParseSpec refuses the rest).
// Adding an algorithm means implementing Algorithm in one file and
// appending a Register call here — every CLI, experiment runner, and the
// differential verification suite picks it up from the registry.
func init() {
	Register(octopusAlgo(), baseKeys...)
	Register(octopusGAlgo(), "eps64", "multihop", "par", "ports") // the matcher is greedy
	Register(octopusBAlgo(), baseKeys...)
	Register(octopusEAlgo(), baseKeys...)
	Register(chainedAlgo(), "eps64", "matcher", "par", "ports") // multihop is on
	Register(octopusPlusAlgo(), append([]string{"backtrack", "keeptrace"}, baseKeys...)...)
	Register(octopusRandomAlgo(), baseKeys...)
	Register(octopusShardedAlgo(), append([]string{"pods"}, baseKeys...)...)
	Register(&funcAlgo{"eclipse-based", Offline, eclipseBased,
		"Eclipse-Based baseline (§8): one-hop Eclipse over the hop decomposition, VOQ-replayed on the multi-hop load"},
		"matcher")
	Register(&funcAlgo{"eclipse-pp", Offline, eclipsePP,
		"Eclipse-Based via Eclipse++ ([36]): time-expanded re-routing of the multi-hop load over the Eclipse sequence"},
		"matcher")
	Register(&funcAlgo{"rotornet", Offline, rotorNet,
		"RotorNet baseline (§8): traffic-agnostic round-robin rotor matchings, replayed on the load"},
		"slots")
	Register(&funcAlgo{"ub", Bound, upperBound,
		"UB upper bound (§8): Eclipse on the unordered hop decomposition, a packet counts once all hops are served"},
		"matcher")
}

// funcAlgo registers a run that builds its own *Outcome; Run stamps the
// registry name on it.
type funcAlgo struct {
	name     string
	kind     Kind
	run      func(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error)
	describe string
}

func (a *funcAlgo) Name() string     { return a.name }
func (a *funcAlgo) Describe() string { return a.describe }
func (a *funcAlgo) Kind() Kind       { return a.kind }

func (a *funcAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	out, err := a.run(g, load, p)
	if err != nil {
		return nil, err
	}
	out.Algo = a.name
	return out, nil
}
