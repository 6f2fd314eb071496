package algo

import (
	"math/rand"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// coreAlgo adapts one Octopus core variant: prep maps the shared Params
// (and possibly the load) onto core.Options, and Run drives the common
// plan → claim → measure pipeline.
type coreAlgo struct {
	name     string
	describe string
	prep     func(load *traffic.Load, p Params) (*traffic.Load, core.Options, error)
}

func (a *coreAlgo) Name() string     { return a.name }
func (a *coreAlgo) Describe() string { return a.describe }
func (a *coreAlgo) Kind() Kind       { return Offline }

// CoreOptions implements CorePlanner: it exposes the variant's mapping so
// core-scheduler pipelines (fault replay, rolling windows) can reuse it.
func (a *coreAlgo) CoreOptions(load *traffic.Load, p Params) (*traffic.Load, core.Options, error) {
	return a.prep(load, p)
}

// baseOptions maps the generic Params fields onto core.Options.
func baseOptions(p Params) core.Options {
	return core.Options{
		Window:      p.Window,
		Delta:       p.Delta,
		Ports:       p.Ports,
		Matcher:     p.Matcher,
		Epsilon64:   p.Epsilon64,
		Parallelism: p.Parallelism,
		Obs:         p.Obs,
	}
}

func (a *coreAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	runLoad, opt, err := a.prep(load, p)
	if err != nil {
		return nil, err
	}
	s, err := core.New(g, runLoad, opt)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Algo:     a.name,
		Fabric:   g,
		Load:     runLoad,
		Schedule: res.Schedule,
		VerifyOpt: verify.Options{
			Window:    opt.Window,
			Ports:     opt.Ports,
			Epsilon64: opt.Epsilon64,
		},
	}
	out.planned(res)
	if opt.MultiRoute {
		// Octopus+ backtracking revises the plan in ways a forward replay
		// cannot reproduce: the plan bookkeeping is authoritative, the
		// schedule is validated structurally, and (with KeepTrace) the
		// plan's own movement records are audited by VerifyPlan.
		if opt.KeepTrace {
			out.Extra = res.VerifyPlan
		}
		return out, nil
	}
	// Single-route plans are claimed exactly: the plan bookkeeping must
	// equal the independent bulk replay packet for packet. Chained
	// (MultiHop) plans still advance one hop per configuration in their
	// bookkeeping, so the bulk claim stays exact; the multi-hop replay the
	// schedule is designed for is additionally validated, but without a
	// bound (chained arrivals compete with resident packets, so delivery
	// may land on either side of the one-hop plan).
	out.VerifyOpt.Claim = out.Plan.claim()
	if opt.MultiHop {
		sch, w := res.Schedule, opt.Window
		out.Extra = func() error {
			_, err := verify.Schedule(g, runLoad, sch, verify.Options{
				Window: w, Ports: opt.Ports, MultiHop: true,
			})
			return err
		}
	}
	sim, err := simulate.Run(g, runLoad, res.Schedule, simulate.Options{
		Window:    opt.Window,
		MultiHop:  opt.MultiHop,
		Ports:     opt.Ports,
		Epsilon64: opt.Epsilon64,
		Obs:       opt.Obs,
		Flight:    p.Flight,
	})
	if err != nil {
		return nil, err
	}
	out.measured(sim)
	return out, nil
}

// passthrough wraps a pure options mapping into a prep func.
func passthrough(f func(p Params) core.Options) func(*traffic.Load, Params) (*traffic.Load, core.Options, error) {
	return func(load *traffic.Load, p Params) (*traffic.Load, core.Options, error) {
		return load, f(p), nil
	}
}

func octopusAlgo() Algorithm {
	return &coreAlgo{
		name:     "octopus",
		describe: "Octopus (§4): greedy best-benefit-per-cost configuration selection with exact matching",
		prep:     passthrough(baseOptions),
	}
}

func octopusGAlgo() Algorithm {
	return &coreAlgo{
		name:     "octopus-g",
		describe: "Octopus-G (§4.1): Octopus with the linear-time greedy 2-approximate matcher",
		prep: passthrough(func(p Params) core.Options {
			opt := baseOptions(p)
			opt.Matcher = core.MatcherGreedy
			return opt
		}),
	}
}

func octopusBAlgo() Algorithm {
	return &coreAlgo{
		name:     "octopus-b",
		describe: "Octopus-B (§4.1): Octopus with ternary search over the α candidates",
		prep: passthrough(func(p Params) core.Options {
			opt := baseOptions(p)
			opt.AlphaSearch = core.AlphaBinary
			return opt
		}),
	}
}

func octopusEAlgo() Algorithm {
	return &coreAlgo{
		name:     "octopus-e",
		describe: "Octopus-e (§4): later hops weighted by 1+x·ε, ε = eps64/64 (default eps64=4)",
		prep: passthrough(func(p Params) core.Options {
			opt := baseOptions(p)
			if opt.Epsilon64 == 0 {
				opt.Epsilon64 = 4
			}
			return opt
		}),
	}
}

func chainedAlgo() Algorithm {
	return &coreAlgo{
		name:     "chained",
		describe: "Octopus with multi-hop chaining (§5, Theorem 2): packets chain hops within a configuration, in the plan and its replay",
		prep: passthrough(func(p Params) core.Options {
			opt := baseOptions(p)
			opt.MultiHop = true
			return opt
		}),
	}
}

func octopusPlusAlgo() Algorithm {
	return &coreAlgo{
		name:     "octopus-plus",
		describe: "Octopus+ (§6): joint routing and scheduling over candidate routes with direct-link backtracking",
		prep: passthrough(func(p Params) core.Options {
			opt := baseOptions(p)
			opt.MultiRoute = true
			opt.DisableBacktrack = p.DisableBacktrack
			opt.KeepTrace = p.KeepTrace
			return opt
		}),
	}
}

func octopusRandomAlgo() Algorithm {
	return &coreAlgo{
		name:     "octopus-random",
		describe: "Octopus-random (§6 baseline): pin one random candidate route per flow, then plain Octopus",
		prep: func(load *traffic.Load, p Params) (*traffic.Load, core.Options, error) {
			rng := p.Rng
			if rng == nil {
				rng = rand.New(rand.NewSource(0))
			}
			resolved := load.Clone()
			for i := range resolved.Flows {
				f := &resolved.Flows[i]
				f.Routes = []traffic.Route{f.Routes[rng.Intn(len(f.Routes))]}
			}
			return resolved, baseOptions(p), nil
		},
	}
}
