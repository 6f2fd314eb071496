// Package hybrid implements the §7 extensions of the paper: scheduling in
// a hybrid circuit/packet network, and the makespan-minimization problem.
//
// A hybrid fabric pairs the high-bandwidth circuit-switched network with a
// low-bandwidth (typically an order of magnitude slower) packet-switched
// network. The paper's strategy: first route as much of the traffic as
// possible over the packet network, then run Octopus (or Octopus+) on the
// remainder; the combined scheme inherits Octopus's guarantee.
package hybrid

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// Result is the outcome of hybrid scheduling.
type Result struct {
	// PacketDelivered is the number of packets served by the
	// packet-switched network within the window.
	PacketDelivered int
	// Circuit is the Octopus result over the residual load (nil when the
	// packet network absorbed everything).
	Circuit *core.Result
	// Residual is the load handed to the circuit scheduler after the packet
	// network absorbed its share (nil when nothing remained); Circuit's
	// schedule is validated against it.
	Residual *traffic.Load
	// TotalPackets is the size of the offered load.
	TotalPackets int
}

// Delivered returns the total packets delivered across both networks.
func (r *Result) Delivered() int {
	d := r.PacketDelivered
	if r.Circuit != nil {
		d += r.Circuit.Delivered
	}
	return d
}

// DeliveredFraction returns Delivered / TotalPackets.
func (r *Result) DeliveredFraction() float64 {
	if r.TotalPackets == 0 {
		return 0
	}
	return float64(r.Delivered()) / float64(r.TotalPackets)
}

// Schedule plans a hybrid run: the packet network (modeled as a
// full-bisection fabric whose per-port line rate is packetRate packets per
// slot, typically 0.1) first absorbs traffic subject to per-port ingress
// and egress budgets of packetRate·Window packets, preferring small flows
// (the classic hybrid split: short flows to the packet network, large
// bursts to the circuit network); Octopus then schedules the remainder.
func Schedule(g *graph.Digraph, load *traffic.Load, opt core.Options, packetRate float64) (*Result, error) {
	if packetRate < 0 {
		return nil, errors.New("hybrid: negative packet rate")
	}
	if err := load.Validate(g); err != nil {
		return nil, err
	}
	res := &Result{TotalPackets: load.TotalPackets()}
	budget := int(packetRate * float64(opt.Window))
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
	sortByFlowSize(load, order)

	residual := &traffic.Load{}
	for _, i := range order {
		f := load.Flows[i]
		take := min(f.Size, outLeft[f.Src], inLeft[f.Dst])
		if take > 0 {
			outLeft[f.Src] -= take
			inLeft[f.Dst] -= take
			res.PacketDelivered += take
			f.Size -= take
		}
		if f.Size > 0 {
			residual.Flows = append(residual.Flows, f)
		}
	}
	// Keep flow-ID order for the circuit scheduler's priority scheme.
	sortByFlowID(residual)
	if len(residual.Flows) == 0 {
		return res, nil
	}
	s, err := core.New(g, residual, opt)
	if err != nil {
		return nil, err
	}
	cres, err := s.Run()
	if err != nil {
		return nil, err
	}
	res.Circuit = cres
	res.Residual = residual
	return res, nil
}

func sortByFlowSize(load *traffic.Load, order []int) {
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(load.Flows[a].Size, load.Flows[b].Size), cmp.Compare(load.Flows[a].ID, load.Flows[b].ID))
	})
}

func sortByFlowID(load *traffic.Load) {
	sort.Slice(load.Flows, func(a, b int) bool {
		return load.Flows[a].ID < load.Flows[b].ID
	})
}

// Makespan solves the makespan-minimization problem of §7: the smallest
// window W that fully serves the load, found by binary search over W with
// Octopus as the feasibility oracle. opt.Window is ignored; the other
// options select the Octopus variant. Returns the minimal window and the
// corresponding result.
func Makespan(g *graph.Digraph, load *traffic.Load, opt core.Options) (int, *core.Result, error) {
	total := load.TotalPackets()
	if total == 0 {
		return 0, nil, errors.New("hybrid: empty load")
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
			return 0, nil, fmt.Errorf("hybrid: no feasible window found up to %d", hi)
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
