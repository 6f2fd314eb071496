package algo

import (
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// init registers the full roster in the canonical display order: the
// Octopus core family, then the baselines, then the hybrid and bound
// entries. Adding an algorithm means implementing Algorithm in one
// file and appending a Register call here — every CLI, experiment runner,
// and the differential verification suite picks it up from the registry.
func init() {
	Register(octopusAlgo())
	Register(octopusGAlgo())
	Register(octopusBAlgo())
	Register(octopusEAlgo())
	Register(chainedAlgo())
	Register(octopusPlusAlgo())
	Register(octopusRandomAlgo())
	Register(octopusRedundantAlgo())
	Register(octopusShardedAlgo())
	Register(&funcAlgo{"eclipse", Offline, eclipse,
		"Eclipse one-hop scheduler over the unordered hop decomposition (plan bookkeeping, not a multi-hop replay)"})
	Register(&funcAlgo{"eclipse-based", Offline, eclipseBased,
		"Eclipse-Based baseline (§8): one-hop Eclipse over the hop decomposition, VOQ-replayed on the multi-hop load"})
	Register(&funcAlgo{"eclipse-pp", Offline, eclipsePP,
		"Eclipse-Based via Eclipse++ ([36]): time-expanded re-routing of the multi-hop load over the Eclipse sequence"})
	Register(&funcAlgo{"rotornet", Offline, rotorNet,
		"RotorNet baseline (§8): traffic-agnostic round-robin rotor matchings, replayed on the load"})
	Register(&funcAlgo{"hybrid", Offline, hybrid,
		"Hybrid circuit/packet scheme (§7): packet network absorbs rate·W per port (rate=0.1), Octopus schedules the rest"})
	Register(&funcAlgo{"ub", Bound, upperBound,
		"UB upper bound (§8): Eclipse on the unordered hop decomposition, a packet counts once all hops are served"})
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
