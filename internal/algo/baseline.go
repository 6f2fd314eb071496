package algo

import (
	"fmt"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// The comparison points of the paper's §8: the Eclipse one-hop scheduler
// [Venkatakrishnan et al., SIGMETRICS '16], the Eclipse-Based multi-hop
// approach built on it (a VOQ replay, eclipse-based, and Eclipse++
// re-routing, eclipse-pp), the traffic-agnostic RotorNet schedule
// [Mellette et al., SIGCOMM '17], and the UB upper bound plus the absolute
// capacity upper bound. Each builds its *Outcome where it computes the
// numbers.

// oneHopLoad builds the "unordered one-hop traffic" T^one from the primary
// routes of load by ignoring the ordering of hops: every hop (vᵢ, vᵢ₊₁) of
// a flow of size s becomes an independent one-hop flow of size s. One-hop
// flow IDs are dense in (flow, hop) order, preserving the relative flow-ID
// priority of the original flows: load.Flows[i]'s hops take the next
// Routes[0].Hops() IDs. With weighted set, each one-hop flow keeps the
// original flow's packet weight (via Flow.WeightHops), so a scheduler over
// T^one optimizes the same ψ objective as the multi-hop problem — the form
// the UB upper bound needs; the Eclipse-Based baselines use the unweighted
// form.
func oneHopLoad(load *traffic.Load, weighted bool) *traffic.Load {
	oh := &traffic.Load{}
	for i := range load.Flows {
		f := &load.Flows[i]
		r := f.Routes[0]
		for h := 0; h+1 < len(r); h++ {
			nf := traffic.Flow{
				ID:     len(oh.Flows),
				Size:   f.Size,
				Src:    r[h],
				Dst:    r[h+1],
				Routes: []traffic.Route{{r[h], r[h+1]}},
			}
			if weighted {
				nf.WeightHops = f.WeightLen(r)
			}
			oh.Flows = append(oh.Flows, nf)
		}
	}
	return oh
}

// runEclipse runs the one-hop Eclipse scheduler [36] over T^one of load:
// exactly the Octopus greedy at 𝒟 = 1, of which Octopus is the multi-hop
// generalization. It returns T^one and the scheduler, which has already
// run (its plan bookkeeping is final), with the plan.
func runEclipse(g *graph.Digraph, load *traffic.Load, p Params, weighted bool) (*traffic.Load, *core.Scheduler, *core.Result, error) {
	oh := oneHopLoad(load, weighted)
	s, err := core.New(g, oh, core.Options{Window: p.Window, Delta: p.Delta, Matcher: p.Matcher})
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	return oh, s, res, nil
}

// eclipse is the pure one-hop Eclipse scheduler over the unordered hop
// decomposition: its plan claim is exact for that load (the decomposition
// is what the outcome carries and is validated against).
func eclipse(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	oh, _, res, err := runEclipse(g, load, p, false)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Fabric: g, Load: oh, Schedule: res.Schedule}
	out.planned(res)
	out.VerifyOpt = verify.Options{Window: p.Window, Claim: out.Plan.claim()}
	return out, nil
}

// eclipseBased is the multi-hop baseline the paper compares against (§8,
// "Algorithms Compared"): run Eclipse over T^one to obtain a near-optimal
// configuration sequence, then route the original multi-hop traffic over
// that fixed sequence with the standard VOQ priority scheme (see DESIGN.md
// for the substitution note).
func eclipseBased(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	_, _, res, err := runEclipse(g, load, p, false)
	if err != nil {
		return nil, err
	}
	return replay(g, load, res.Schedule, p.Window)
}

// eclipsePP is the paper-faithful Eclipse-Based realization: Eclipse over
// T^one, then Eclipse++ time-expanded re-routing of the original
// multi-hop traffic over the resulting sequence. Eclipse++ routes off the
// declared routes by design, so only the schedule itself is validated; its
// accounting gets sanity bounds, and it reports no ψ (DESIGN §2 S12).
func eclipsePP(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	_, _, res, err := runEclipse(g, load, p, false)
	if err != nil {
		return nil, err
	}
	out, err := eclipsePlusPlus(g, load, res.Schedule, p.Window)
	if err != nil {
		return nil, err
	}
	out.Fabric, out.Load, out.Schedule = g, load, res.Schedule
	out.Reconfigs = len(res.Schedule.Configs)
	out.SlotsUsed = res.Schedule.Cost()
	out.VerifyOpt = verify.Options{Window: p.Window}
	out.Extra = func() error {
		if out.Delivered > out.Total {
			return fmt.Errorf("eclipse++ delivered %d of %d packets", out.Delivered, out.Total)
		}
		if int64(out.Hops) > out.ActiveLinkSlots {
			return fmt.Errorf("eclipse++ served %d hops over %d link-slots", out.Hops, out.ActiveLinkSlots)
		}
		return nil
	}
	return out, nil
}

// rotorNetSchedule returns the traffic-agnostic RotorNet schedule [28]:
// the complete bipartite fabric is decomposed into the n-1 cyclic perfect
// matchings M_r = {(i, (i+r) mod n)}, and the schedule cycles through them
// with a fixed, uniform duration per matching (the paper uses 10·Δ,
// following ProjecToR/RotorNet practice) until the window is filled.
func rotorNetSchedule(n, window, delta, slotsPerMatching int) *schedule.Schedule {
	if slotsPerMatching <= 0 {
		slotsPerMatching = 10 * delta
		if slotsPerMatching <= 0 {
			slotsPerMatching = 10
		}
	}
	sch := &schedule.Schedule{Delta: delta}
	r := 1
	for used := 0; used+delta < window; used += slotsPerMatching + delta {
		alpha := slotsPerMatching
		if used+delta+alpha > window {
			alpha = window - used - delta
		}
		links := make([]graph.Edge, 0, n)
		for i := 0; i < n; i++ {
			links = append(links, graph.Edge{From: i, To: (i + r) % n})
		}
		sch.Configs = append(sch.Configs, schedule.Configuration{Links: links, Alpha: alpha})
		r++
		if r >= n {
			r = 1
		}
	}
	return sch
}

// rotorNet replays the multi-hop load over the RotorNet schedule. RotorNet
// assumes a complete fabric, so the replay (and the validation of its
// schedule) runs over Complete(n) even when the instance's fabric g is
// partial (the paper applies it to the MHS problem "by assuming
// availability of all edges anyway"); the flows still follow their given
// routes.
func rotorNet(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	sch := rotorNetSchedule(g.N(), p.Window, p.Delta, p.SlotsPerMatching)
	return replay(graph.Complete(g.N()), load, sch, p.Window)
}

// replay measures a baseline's schedule with the packet-level simulator;
// the simulator's counts are the claim that differentially tests it
// against the verify replay.
func replay(fabric *graph.Digraph, load *traffic.Load, sch *schedule.Schedule, window int) (*Outcome, error) {
	sim, err := simulate.Run(fabric, load, sch, simulate.Options{Window: window})
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Fabric:    fabric,
		Load:      load,
		Schedule:  sch,
		Reconfigs: len(sch.Configs),
		VerifyOpt: verify.Options{
			Window: window,
			Claim:  &verify.Claim{Delivered: sim.Delivered, Hops: sim.Hops, Psi: sim.Psi},
		},
	}
	out.measured(sim)
	return out, nil
}

// upperBound computes UB (§8, "Upper Bounds"): the best achievable
// performance of a polynomial algorithm for the MHS instance, obtained by
// relaxing hop ordering — Eclipse schedules the weighted T^one, and a
// packet counts as delivered only once all of its hops have been served
// (in any order). It is a bound, not a feasible schedule: the outcome
// carries none.
func upperBound(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	_, s, res, err := runEclipse(g, load, p, true)
	if err != nil {
		return nil, err
	}
	pending := s.PendingByFlow()
	out := &Outcome{
		Fabric:          g,
		Load:            load,
		Total:           load.TotalPackets(),
		Hops:            res.Hops,
		ActiveLinkSlots: res.Schedule.ActiveLinkSlots(),
	}
	id := 0 // the one-hop flow of (flow i, hop h), dense in that order
	for i := range load.Flows {
		f := &load.Flows[i]
		minServed := f.Size
		for range f.Routes[0].Hops() {
			served := f.Size - pending[id]
			id++
			minServed = min(minServed, served)
			out.Psi += int64(served) * f.Weight()
		}
		out.Delivered += minServed
	}
	return out, nil
}

// AbsoluteUpperBound returns the capacity upper bound on deliverable
// packets: at most window·n packet-hops can be traversed (a matching of an
// n-node fabric has at most n links, one packet per slot each), and the
// bound delivers cheapest-route packets first. For the paper's default
// synthetic load this evaluates to the 66% figure quoted in §8.
func AbsoluteUpperBound(load *traffic.Load, window, n int) int {
	budget := int64(window) * int64(n)
	// Count packets per route length.
	counts := make([]int, traffic.MaxRouteLen+1)
	for i := range load.Flows {
		f := &load.Flows[i]
		counts[f.Routes[0].Hops()] += f.Size
	}
	delivered := 0
	for h := 1; h <= traffic.MaxRouteLen; h++ {
		if counts[h] == 0 {
			continue
		}
		can := budget / int64(h)
		take := counts[h]
		if int64(take) > can {
			take = int(can)
		}
		delivered += take
		budget -= int64(take) * int64(h)
	}
	return delivered
}
