package core

import (
	"cmp"
	"fmt"
	"slices"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// ResidualLoad exports the remaining traffic after the greedy loop has
// finished as a fresh load: packets stranded at intermediate nodes become
// flows whose route is the untraversed suffix of their original route, and
// packets still at their source keep their original route set. Flow IDs
// are reassigned densely in (original flow, position) order, preserving
// the original relative priority.
//
// This implements the paper's §4 observation that packets undelivered
// within one window "can be considered for continued routing in the next
// time window": schedule a window, export the residual, schedule it in the
// next window (see RunWindows).
func (s *Scheduler) ResidualLoad() *traffic.Load {
	load, _ := s.ResidualLoadMap()
	return load
}

// ResidualLoadMap is ResidualLoad plus the provenance of each residual
// flow: origin[id] is the ID of the original flow that residual flow id
// carries packets of (residual IDs are dense, so a slice indexes them).
// The epoch engine uses this to track per-flow delivery and completion
// across scheduling epochs.
func (s *Scheduler) ResidualLoadMap() (*traffic.Load, []int) {
	var rems []subflow
	for _, sf := range s.tr.subflows {
		if sf.count > 0 {
			rems = append(rems, sf)
		}
	}
	flows := s.tr.flows
	slices.SortFunc(rems, func(a, b subflow) int {
		return cmp.Or(
			cmp.Compare(flows[a.flow].ID, flows[b.flow].ID),
			cmp.Compare(a.routeID, b.routeID),
			cmp.Compare(a.pos, b.pos),
		)
	})
	out := &traffic.Load{Flows: slices.Grow([]traffic.Flow(nil), len(rems))}
	origin := make([]int, 0, len(rems))
	for id, sf := range rems {
		f := &flows[sf.flow]
		var routes []traffic.Route
		if sf.routeID < 0 {
			// Still at the source with the route choice open.
			routes = make([]traffic.Route, len(f.Routes))
			for i, rt := range f.Routes {
				routes[i] = slices.Clone(rt)
			}
		} else {
			routes = []traffic.Route{slices.Clone(f.Routes[sf.routeID][sf.pos:])}
		}
		out.Flows = append(out.Flows, traffic.Flow{
			ID:     id,
			Size:   int(sf.count),
			Src:    routes[0].Src(),
			Dst:    f.Dst,
			Routes: routes,
		})
		origin = append(origin, f.ID)
	}
	return out, origin
}

// WindowResult is the outcome of one window of a rolling run.
type WindowResult struct {
	Result   *Result
	Offered  int // packets offered to this window (initial + carried over)
	Residual int // packets carried into the next window
}

// RunWindows schedules load across successive windows of opt.Window slots:
// each window runs the full greedy loop, and undelivered packets carry
// over (from their current positions) into the next window. Returns the
// per-window results; the sum of Result.Delivered is the total throughput.
func RunWindows(g *graph.Digraph, load *traffic.Load, opt Options, windows int) ([]WindowResult, error) {
	if windows < 1 {
		return nil, fmt.Errorf("core: windows must be positive, got %d", windows)
	}
	cur := load
	var out []WindowResult
	for w := 0; w < windows && len(cur.Flows) > 0; w++ {
		s, err := New(g, cur, opt)
		if err != nil {
			return nil, err
		}
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		residual := s.ResidualLoad()
		out = append(out, WindowResult{
			Result:   res,
			Offered:  cur.TotalPackets(),
			Residual: residual.TotalPackets(),
		})
		cur = residual
	}
	return out, nil
}

// TotalDelivered sums the packets delivered across the windows.
func TotalDelivered(ws []WindowResult) int {
	total := 0
	for _, w := range ws {
		total += w.Result.Delivered
	}
	return total
}
