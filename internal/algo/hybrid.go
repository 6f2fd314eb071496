package algo

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// The §7 extensions of the paper: scheduling in a hybrid circuit/packet
// network, and the makespan-minimization problem.
//
// A hybrid fabric pairs the high-bandwidth circuit-switched network with a
// low-bandwidth (typically an order of magnitude slower) packet-switched
// network. The paper's strategy: first route as much of the traffic as
// possible over the packet network, then run Octopus (or Octopus+) on the
// remainder; the combined scheme inherits Octopus's guarantee.

// hybrid is the registered scheme: hybridSchedule at p.PacketRate, 0.1
// when unset.
func hybrid(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	rate := p.PacketRate
	if rate == 0 {
		rate = 0.1
	}
	return hybridSchedule(g, load, p, rate)
}

// hybridSchedule plans a hybrid run: the packet network (modeled as a
// full-bisection fabric whose per-port line rate is rate packets per slot,
// typically 0.1) first absorbs traffic subject to per-port ingress and
// egress budgets of rate·Window packets, preferring small flows (the
// classic hybrid split: short flows to the packet network, large bursts to
// the circuit network); Octopus then schedules the remainder.
//
// The combined delivery is the outcome metric. The packet network is
// full-bisection, one hop per packet it absorbs (PacketNetHops); the
// circuit hops add on top. The circuit plan's bookkeeping is claimed
// exactly against the residual load, which is the outcome's Load; when the
// packet network absorbs everything the outcome carries no schedule.
func hybridSchedule(g *graph.Digraph, load *traffic.Load, p Params, rate float64) (*Outcome, error) {
	if !(rate >= 0) || rate*float64(p.Window) >= math.MaxInt64 {
		return nil, fmt.Errorf("algo: hybrid: packet rate %g: want >= 0 with rate·window within an int", rate)
	}
	if err := load.Validate(g); err != nil {
		return nil, err
	}
	budget := int(rate * float64(p.Window))
	outLeft := make([]int, g.N())
	inLeft := make([]int, g.N())
	for i := range outLeft {
		outLeft[i] = budget
		inLeft[i] = budget
	}
	// Smallest flows first: they benefit most from the always-on packet
	// network and cost the circuit network the most overhead.
	order := make([]int, len(load.Flows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(load.Flows[a].Size, load.Flows[b].Size), cmp.Compare(load.Flows[a].ID, load.Flows[b].ID))
	})

	packet := 0
	residual := &traffic.Load{}
	for _, i := range order {
		f := load.Flows[i]
		take := min(f.Size, outLeft[f.Src], inLeft[f.Dst])
		if take > 0 {
			outLeft[f.Src] -= take
			inLeft[f.Dst] -= take
			packet += take
			f.Size -= take
		}
		if f.Size > 0 {
			residual.Flows = append(residual.Flows, f)
		}
	}
	out := &Outcome{Fabric: g, Load: load}
	out.Extra = func() error {
		if out.PacketNetHops < 0 || out.Delivered > out.Total {
			return fmt.Errorf("hybrid delivered %d (packet %d) of %d packets",
				out.Delivered, out.PacketNetHops, out.Total)
		}
		return nil
	}
	// Keep flow-ID order for the circuit scheduler's priority scheme.
	sort.Slice(residual.Flows, func(a, b int) bool {
		return residual.Flows[a].ID < residual.Flows[b].ID
	})
	if len(residual.Flows) > 0 {
		opt := baseOptions(p)
		s, err := core.New(g, residual, opt)
		if err != nil {
			return nil, err
		}
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		out.Load, out.Schedule = residual, res.Schedule
		out.planned(res)
		out.VerifyOpt = verify.Options{
			Window:    opt.Window,
			Ports:     opt.Ports,
			Epsilon64: opt.Epsilon64,
			Claim:     out.Plan.claim(),
		}
	}
	out.Delivered += packet
	out.Total = load.TotalPackets()
	out.Hops += packet
	out.PacketNetHops = packet
	return out, nil
}

// Makespan solves the makespan-minimization problem of §7: the smallest
// window W that fully serves the load, found by binary search over W with
// Octopus as the feasibility oracle. opt.Window is ignored; the other
// options select the Octopus variant. Returns the minimal window and the
// corresponding result.
func Makespan(g *graph.Digraph, load *traffic.Load, opt core.Options) (int, *core.Result, error) {
	total := load.TotalPackets()
	if total == 0 {
		return 0, nil, errors.New("algo: makespan of an empty load")
	}
	feasible := func(w int) (*core.Result, error) {
		o := opt
		o.Window = w
		s, err := core.New(g, load, o)
		if err != nil {
			return nil, err
		}
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		if res.Pending == 0 {
			return res, nil
		}
		return nil, nil
	}
	// Exponential search for an upper bound.
	lo := opt.Delta + 1
	hi := lo + opt.Delta + load.TotalHops() // serve one giant matching at a time
	var hiRes *core.Result
	for {
		res, err := feasible(hi)
		if err != nil {
			return 0, nil, err
		}
		if res != nil {
			hiRes = res
			break
		}
		if hi > load.TotalHops()*(opt.Delta+2)+opt.Delta+1 {
			return 0, nil, fmt.Errorf("algo: makespan: no feasible window found up to %d", hi)
		}
		hi *= 2
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		res, err := feasible(mid)
		if err != nil {
			return 0, nil, err
		}
		if res != nil {
			hi = mid
			hiRes = res
		} else {
			lo = mid + 1
		}
	}
	return hi, hiRes, nil
}
