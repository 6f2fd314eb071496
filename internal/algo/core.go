package algo

import (
	"math/rand"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/schedule"
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
	return core.Options{Window: p.Window, Delta: p.Delta, Ports: p.Ports, Matcher: p.Matcher,
		Epsilon64: p.Epsilon64, Parallelism: p.Parallelism, Obs: p.Obs}
}

func (a *coreAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	runLoad, opt, err := a.prep(load, p)
	if err != nil {
		return nil, err
	}
	// Every variant but Octopus+ is measured by the packet-level replay. It
	// reads each configuration as Step commits it, on its own goroutine, so
	// it runs beside the plan, and it reads nothing but the configurations.
	var cfgs chan schedule.Configuration
	var sim *simulate.Result
	var simErr error
	replayed := make(chan struct{})
	if opt.MultiRoute {
		close(replayed)
	} else {
		cfgs = make(chan schedule.Configuration, replayBuffer)
		go func() {
			defer close(replayed)
			sim, simErr = simulate.Stream(g, runLoad, opt.Delta, simulate.Options{Window: opt.Window, MultiHop: opt.MultiHop,
				Ports: opt.Ports, Epsilon64: opt.Epsilon64, Obs: opt.Obs, Flight: p.Flight}, cfgs)
		}()
	}
	res, err := plan(g, runLoad, opt, cfgs)
	<-replayed // plan closed cfgs: no replay outlives Run
	if err != nil {
		return nil, err
	}
	out := &Outcome{Algo: a.name, Fabric: g, Load: runLoad, Schedule: res.Schedule,
		VerifyOpt: verify.Options{Window: opt.Window, Ports: opt.Ports, Epsilon64: opt.Epsilon64}}
	out.planned(res)
	if opt.MultiRoute {
		// Octopus+ backtracking revises the plan in ways a forward replay
		// cannot reproduce: its bookkeeping is authoritative, the schedule is
		// checked structurally and, with KeepTrace, audited by VerifyPlan.
		if opt.KeepTrace {
			out.Extra = res.VerifyPlan
		}
		return out, nil
	}
	// Single-route plans are claimed exactly: the plan bookkeeping must equal
	// the bulk replay packet for packet, chained plans too (their bookkeeping
	// advances one hop a configuration). The multi-hop replay a chained
	// schedule is designed for is validated without a bound: chained arrivals
	// compete with resident packets, so delivery may land either side of it.
	out.VerifyOpt.Claim = out.Plan.claim()
	if opt.MultiHop {
		sch, w := res.Schedule, opt.Window
		out.Extra = func() error {
			_, err := verify.Schedule(g, runLoad, sch, verify.Options{Window: w, Ports: opt.Ports, MultiHop: true})
			return err
		}
	}
	if simErr != nil {
		return nil, simErr
	}
	out.measured(sim)
	return out, nil
}

// replayBuffer is how far the plan may run ahead of the replay, so that it
// does not wait while the replay works through a heavy configuration; past
// it the plan waits, which bounds what the channel holds.
const replayBuffer = 256

// plan drives the greedy loop to completion, sending every configuration
// Step commits to cfgs unless it is nil, and closes cfgs on every path.
func plan(g *graph.Digraph, load *traffic.Load, opt core.Options, cfgs chan<- schedule.Configuration) (*core.Result, error) {
	if cfgs != nil {
		defer close(cfgs)
	}
	s, err := core.New(g, load, opt)
	if err != nil {
		return nil, err
	}
	for {
		cfg, ok, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return s.Run() // the loop has ended: Run only collects the result
		}
		if cfgs != nil {
			cfgs <- cfg
		}
	}
}

// variant is a core entry whose options are baseOptions with set applied.
func variant(name, describe string, set func(opt *core.Options, p Params)) *coreAlgo {
	return &coreAlgo{name: name, describe: describe, prep: func(load *traffic.Load, p Params) (*traffic.Load, core.Options, error) {
		opt := baseOptions(p)
		set(&opt, p)
		return load, opt, nil
	}}
}

func octopusAlgo() Algorithm {
	return variant("octopus", "Octopus (§4): greedy best-benefit-per-cost configuration selection with exact matching",
		func(*core.Options, Params) {})
}

func octopusGAlgo() Algorithm {
	return variant("octopus-g", "Octopus-G (§4.1): Octopus with the linear-time greedy 2-approximate matcher",
		func(opt *core.Options, _ Params) { opt.Matcher = core.MatcherGreedy })
}

func octopusBAlgo() Algorithm {
	return variant("octopus-b", "Octopus-B (§4.1): Octopus with ternary search over the α candidates",
		func(opt *core.Options, _ Params) { opt.AlphaSearch = core.AlphaBinary })
}

func octopusEAlgo() Algorithm {
	return variant("octopus-e", "Octopus-e (§4): later hops weighted by 1+x·ε, ε = eps64/64 (default eps64=4)",
		func(opt *core.Options, _ Params) {
			if opt.Epsilon64 == 0 {
				opt.Epsilon64 = 4
			}
		})
}

func chainedAlgo() Algorithm {
	return variant("chained", "Octopus with multi-hop chaining (§5, Theorem 2): packets chain hops within a configuration, in the plan and its replay",
		func(opt *core.Options, _ Params) { opt.MultiHop = true })
}

func octopusPlusAlgo() Algorithm {
	return variant("octopus-plus", "Octopus+ (§6): joint routing and scheduling over candidate routes with direct-link backtracking",
		func(opt *core.Options, p Params) {
			opt.MultiRoute, opt.DisableBacktrack, opt.KeepTrace = true, p.DisableBacktrack, p.KeepTrace
		})
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
