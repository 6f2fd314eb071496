// Proactive multipath redundancy: provisioning critical flows with
// pairwise edge-disjoint alternate routes before any failure occurs, the
// complement of the online package's reactive epoch-boundary repair.
//
// Provision is the whole of it. It picks the flows that deserve spatial
// redundancy (the largest ones — losing them hurts most), gives each up to
// k−1 Bhandari edge-disjoint alternates of its primary route, bounded by a
// stretch factor, and turns each flow that got one into independent
// single-route copy flows tied together by a Redundancy group map. The
// ordinary scheduler plans every copy like any other flow, and the epoch
// engine's fault loop (internal/engine, Config.Red) deduplicates delivery
// per group: a group counts once, by its best copy.
package traffic

import (
	"sort"

	"octopus/internal/graph"
)

// Provision protects the ⌈crit·len(Flows)⌉ largest flows of l (size
// descending, then ID ascending; crit <= 0 picks none, crit >= 1 all) when
// k > 1. A picked flow's routes become its primary route plus up to k−1
// alternates (see alternates); if it got any, it expands into one
// single-route copy flow per route: the primary copy keeps the flow's ID,
// each alternate takes a fresh ID past the load's maximum, assigned in flow
// order, and the returned Redundancy maps every copy to the flow's ID. A
// picked flow with no alternate keeps only its primary route; every other
// flow is copied as it is. The input load is never modified.
func Provision(g *graph.Digraph, l *Load, k int, crit, maxStretch float64) (*Load, *Redundancy) {
	picked := make([]bool, len(l.Flows))
	if k > 1 {
		for _, i := range largest(l, crit) {
			picked[i] = true
		}
	}
	nextID := 0
	for i := range l.Flows {
		nextID = max(nextID, l.Flows[i].ID+1)
	}
	out := &Load{Flows: make([]Flow, 0, len(l.Flows))}
	red := &Redundancy{Group: make(map[int]int)}
	for i, f := range l.Flows {
		routes := f.Routes
		if picked[i] && len(routes) > 0 {
			routes = append([]Route{routes[0]}, alternates(g, &f, k-1, maxStretch)...)
		}
		if !picked[i] || len(routes) <= 1 {
			f.Routes = make([]Route, len(routes))
			for j, r := range routes {
				f.Routes[j] = append(Route(nil), r...)
			}
			out.Flows = append(out.Flows, f)
			continue
		}
		for j, r := range routes {
			cf := f
			cf.Routes = []Route{append(Route(nil), r...)}
			if j > 0 {
				cf.ID = nextID
				nextID++
			}
			red.Group[cf.ID] = f.ID
			out.Flows = append(out.Flows, cf)
		}
	}
	return out, red
}

// largest returns the indexes of the ⌈frac·len(Flows)⌉ largest flows of l,
// ties by ascending flow ID.
func largest(l *Load, frac float64) []int {
	if frac <= 0 || len(l.Flows) == 0 {
		return nil
	}
	m := int(frac*float64(len(l.Flows)) + 0.999999)
	if frac >= 1 || m > len(l.Flows) {
		m = len(l.Flows)
	}
	idx := make([]int, len(l.Flows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		fa, fb := &l.Flows[idx[a]], &l.Flows[idx[b]]
		if fa.Size != fb.Size {
			return fa.Size > fb.Size
		}
		return fa.ID < fb.ID
	})
	return idx[:m]
}

// alternates returns up to n routes from f.Src to f.Dst, pairwise
// edge-disjoint and disjoint from f's primary route: extracted from the
// fabric with the primary's edges removed, so every route of the set is
// disjoint from every other. They are capped at maxStretch × the primary's
// hop count (and always at MaxRouteLen, and at WeightHops when the flow
// overrides its weight); maxStretch <= 0 leaves only the structural caps.
func alternates(g *graph.Digraph, f *Flow, n int, maxStretch float64) []Route {
	primary := f.Routes[0]
	maxHops := MaxRouteLen
	if maxStretch > 0 {
		maxHops = min(maxHops, max(primary.Hops(), int(maxStretch*float64(primary.Hops()))))
	}
	if f.WeightHops > 0 {
		maxHops = min(maxHops, f.WeightHops)
	}
	onPrimary := make(map[graph.Edge]bool, primary.Hops())
	for h := 0; h+1 < len(primary); h++ {
		onPrimary[graph.Edge{From: primary[h], To: primary[h+1]}] = true
	}
	residual := g.Subgraph(func(e graph.Edge) bool { return !onPrimary[e] })
	var alts []Route
	for _, a := range graph.DisjointRoutes(residual, f.Src, f.Dst, n, maxHops) {
		alts = append(alts, Route(a))
	}
	return alts
}

// Redundancy describes the copy groups of an expanded redundant load.
type Redundancy struct {
	// Group maps each copy flow's ID (the primary copy included) to the
	// group's primary flow ID. Flows absent from the map are unreplicated.
	Group map[int]int
}

// Empty reports whether no flow carries redundant copies.
func (r *Redundancy) Empty() bool { return r == nil || len(r.Group) == 0 }

// GroupOf returns the primary flow ID of id's redundancy group and whether
// id belongs to one.
func (r *Redundancy) GroupOf(id int) (int, bool) {
	if r == nil {
		return 0, false
	}
	p, ok := r.Group[id]
	return p, ok
}

// Duplicate reports whether id is a non-primary copy: a flow whose packets
// are redundant duplicates of its group primary's.
func (r *Redundancy) Duplicate(id int) bool {
	if r == nil {
		return false
	}
	p, ok := r.Group[id]
	return ok && p != id
}

// Members returns the group map inverted: primary flow ID → all member IDs
// in ascending order (primary first, since copies get larger IDs).
func (r *Redundancy) Members() map[int][]int {
	if r == nil {
		return nil
	}
	m := make(map[int][]int, len(r.Group))
	for id, p := range r.Group {
		m[p] = append(m[p], id)
	}
	for p := range m {
		sort.Ints(m[p])
	}
	return m
}
