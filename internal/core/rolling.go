package core

import (
	"cmp"
	"slices"

	"octopus/internal/traffic"
)

// ResidualLoadMap exports the remaining traffic after the greedy loop has
// finished as a fresh load: packets stranded at intermediate nodes become
// flows whose route is the untraversed suffix of their original route, and
// packets still at their source keep their original route set; a flow's
// WeightHops override is carried, less the hops already served. Flow IDs
// are reassigned densely in (original flow, position) order, preserving
// the original relative priority. origin[id] is the ID of the original
// flow that residual flow id carries packets of (residual IDs are dense,
// so a slice indexes them).
//
// This implements the paper's §4 observation that packets undelivered
// within one window "can be considered for continued routing in the next
// time window": the epoch engine schedules a window, exports the residual
// and schedules it in the next one, using origin to track per-flow
// delivery and completion across epochs.
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
		weightHops := f.WeightHops
		if sf.routeID < 0 {
			// Still at the source with the route choice open.
			routes = make([]traffic.Route, len(f.Routes))
			for i, rt := range f.Routes {
				routes[i] = slices.Clone(rt)
			}
		} else {
			routes = []traffic.Route{slices.Clone(f.Routes[sf.routeID][sf.pos:])}
			if weightHops > 0 {
				// The override shrinks by the hops already served, so it
				// still covers the suffix.
				weightHops -= int(sf.pos)
			}
		}
		out.Flows = append(out.Flows, traffic.Flow{
			ID:         id,
			Size:       int(sf.count),
			Src:        routes[0].Src(),
			Dst:        f.Dst,
			Routes:     routes,
			WeightHops: weightHops,
		})
		origin = append(origin, f.ID)
	}
	return out, origin
}
