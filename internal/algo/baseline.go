package algo

import (
	"fmt"

	"octopus/internal/baseline"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// runFn is a schedule-producing baseline run returning the replayed
// measurement and the schedule it measured.
type runFn func(g *graph.Digraph, load *traffic.Load, p Params) (*simulate.Result, *schedule.Schedule, error)

// simAlgo adapts a baseline measured by the packet-level simulator; the
// simulator's claim differentially tests it against the verify replay.
type simAlgo struct {
	name     string
	describe string
	// verifyFabric returns the fabric the schedule is validated against
	// (nil = the run fabric; RotorNet validates against Complete(n)).
	verifyFabric func(g *graph.Digraph) *graph.Digraph
	run          runFn
}

func (a *simAlgo) Name() string     { return a.name }
func (a *simAlgo) Describe() string { return a.describe }
func (a *simAlgo) Kind() Kind       { return Offline }

func (a *simAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	sim, sch, err := a.run(g, load, p)
	if err != nil {
		return nil, err
	}
	fabric := g
	if a.verifyFabric != nil {
		fabric = a.verifyFabric(g)
	}
	return &Outcome{
		Algo:            a.name,
		Fabric:          fabric,
		Load:            load,
		Schedule:        sch,
		Delivered:       sim.Delivered,
		Total:           sim.TotalPackets,
		Hops:            sim.Hops,
		Psi:             sim.Psi,
		ActiveLinkSlots: sim.ActiveLinkSlots,
		Reconfigs:       len(sch.Configs),
		ConfigsReplayed: sim.Configs,
		SlotsUsed:       sim.SlotsUsed,
		Measured:        true,
		VerifyOpt: verify.Options{
			Window: p.Window,
			Claim:  &verify.Claim{Delivered: sim.Delivered, Hops: sim.Hops, Psi: sim.Psi},
		},
	}, nil
}

func eclipseBasedAlgo() Algorithm {
	return &simAlgo{
		name:     "eclipse-based",
		describe: "Eclipse-Based baseline (§8): one-hop Eclipse over the hop decomposition, VOQ-replayed on the multi-hop load",
		run: func(g *graph.Digraph, load *traffic.Load, p Params) (*simulate.Result, *schedule.Schedule, error) {
			return baseline.EclipseBased(g, load, p.Window, p.Delta, p.Matcher)
		},
	}
}

func rotornetAlgo() Algorithm {
	return &simAlgo{
		name:     "rotornet",
		describe: "RotorNet baseline (§8): traffic-agnostic round-robin rotor matchings, replayed on the load",
		// RotorNet assumes the complete fabric; validate its schedule
		// against Complete(n), like its own replay does.
		verifyFabric: func(g *graph.Digraph) *graph.Digraph { return graph.Complete(g.N()) },
		run: func(g *graph.Digraph, load *traffic.Load, p Params) (*simulate.Result, *schedule.Schedule, error) {
			return baseline.RotorNet(g, load, p.Window, p.Delta, p.SlotsPerMatching)
		},
	}
}

// eclipseAlgo is the pure one-hop Eclipse scheduler over the unordered hop
// decomposition: its plan claim is exact for that load (the decomposition
// is what the outcome carries and is validated against).
type eclipseAlgo struct{}

func (eclipseAlgo) Name() string { return "eclipse" }
func (eclipseAlgo) Describe() string {
	return "Eclipse one-hop scheduler over the unordered hop decomposition (plan bookkeeping, not a multi-hop replay)"
}
func (eclipseAlgo) Kind() Kind { return Offline }

func (eclipseAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	oh := baseline.OneHopLoad(load, false)
	_, res, err := baseline.Eclipse(g, oh.Load, p.Window, p.Delta, p.Matcher)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Algo:     "eclipse",
		Fabric:   g,
		Load:     oh.Load,
		Schedule: res.Schedule,
		Plan: &PlanInfo{
			Iterations: res.Iterations,
			Delivered:  res.Delivered,
			Hops:       res.Hops,
			Psi:        res.Psi,
		},
		Delivered:       res.Delivered,
		Total:           res.TotalPackets,
		Hops:            res.Hops,
		Psi:             res.Psi,
		ActiveLinkSlots: res.Schedule.ActiveLinkSlots(),
		Reconfigs:       len(res.Schedule.Configs),
		SlotsUsed:       res.Schedule.Cost(),
		VerifyOpt: verify.Options{
			Window: p.Window,
			Claim:  &verify.Claim{Delivered: res.Delivered, Hops: res.Hops, Psi: res.Psi},
		},
	}, nil
}

// eclipsePPAlgo is the paper-faithful Eclipse-Based realization: Eclipse
// over the one-hop load, then Eclipse++ time-expanded re-routing of the
// original multi-hop traffic over the resulting sequence. Eclipse++
// routes off the declared routes by design, so only the schedule itself
// is validated; its accounting gets sanity bounds.
type eclipsePPAlgo struct{}

func (eclipsePPAlgo) Name() string { return "eclipse-pp" }
func (eclipsePPAlgo) Describe() string {
	return "Eclipse-Based via Eclipse++ ([36]): time-expanded re-routing of the multi-hop load over the Eclipse sequence"
}
func (eclipsePPAlgo) Kind() Kind { return Offline }

func (eclipsePPAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	oh := baseline.OneHopLoad(load, false)
	_, res, err := baseline.Eclipse(g, oh.Load, p.Window, p.Delta, p.Matcher)
	if err != nil {
		return nil, err
	}
	epp, err := baseline.EclipsePlusPlus(g, load, res.Schedule, p.Window)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Algo:            "eclipse-pp",
		Fabric:          g,
		Load:            load,
		Schedule:        res.Schedule,
		Delivered:       epp.Delivered,
		Total:           epp.TotalPackets,
		Hops:            epp.Hops,
		ActiveLinkSlots: epp.ActiveLinkSlots,
		Reconfigs:       len(res.Schedule.Configs),
		SlotsUsed:       res.Schedule.Cost(),
		VerifyOpt:       verify.Options{Window: p.Window},
		Extra: func() error {
			if epp.Delivered > epp.TotalPackets {
				return fmt.Errorf("eclipse++ delivered %d of %d packets", epp.Delivered, epp.TotalPackets)
			}
			if int64(epp.Hops) > epp.ActiveLinkSlots {
				return fmt.Errorf("eclipse++ served %d hops over %d link-slots", epp.Hops, epp.ActiveLinkSlots)
			}
			return nil
		},
	}, nil
}

// ubAlgo is the UB pseudo-algorithm of §8: the best achievable performance
// of a polynomial algorithm, obtained by relaxing hop ordering. It is a
// bound, not a feasible schedule.
type ubAlgo struct{}

func (ubAlgo) Name() string { return "ub" }
func (ubAlgo) Describe() string {
	return "UB upper bound (§8): Eclipse on the unordered hop decomposition, a packet counts once all hops are served"
}
func (ubAlgo) Kind() Kind { return Bound }

func (ubAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	ub, err := baseline.UpperBound(g, load, p.Window, p.Delta, p.Matcher)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Algo:            "ub",
		Fabric:          g,
		Load:            load,
		Delivered:       ub.Delivered,
		Total:           ub.TotalPackets,
		Hops:            ub.Hops,
		Psi:             ub.Psi,
		ActiveLinkSlots: ub.ActiveLinkSlots,
	}, nil
}
