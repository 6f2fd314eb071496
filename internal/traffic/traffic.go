// Package traffic models multi-hop circuit-switched traffic loads: flows
// with sizes, sources, destinations and candidate routes, plus the exact
// integer packet-weight arithmetic used throughout the scheduler.
//
// The paper assigns each packet a weight equal to the inverse of its flow
// route's hop count. To keep every ψ/benefit computation exact and the
// resulting schedules bit-for-bit deterministic, weights are scaled
// integers: a packet on an l-hop route weighs WeightScale/l, where
// WeightScale is divisible by every l up to MaxRouteLen and by the 64ths
// used for the Octopus-e ε hop bonus.
package traffic

import (
	"errors"
	"fmt"

	"octopus/internal/graph"
	"octopus/internal/par"
)

// MaxRouteLen is the maximum supported number of hops in a flow route. The
// paper assumes network diameters of 2-4; 12 leaves generous headroom while
// keeping weights exactly representable.
const MaxRouteLen = 12

// WeightScale is the integer weight of a 1-hop packet: lcm(1..12) * 64.
// A packet on an l-hop route weighs WeightScale/l exactly.
const WeightScale = 27720 * 64

// Weight returns the exact scaled weight of a packet whose flow route has
// the given number of hops.
func Weight(hops int) int64 {
	if hops < 1 || hops > MaxRouteLen {
		panic(fmt.Sprintf("traffic: route hops %d out of range [1,%d]", hops, MaxRouteLen))
	}
	return WeightScale / int64(hops)
}

// HopWeight returns the Octopus-e benefit weight of the hop x hops away
// from the source (x = 0 for the first hop) of an l-hop route, with ε
// expressed in 1/64 units: weight * (1 + x*eps64/64), exactly.
func HopWeight(l, x, eps64 int) int64 {
	if x < 0 || x >= l {
		panic(fmt.Sprintf("traffic: hop index %d out of range for %d-hop route", x, l))
	}
	return Weight(l) + int64(x)*int64(eps64)*(27720/int64(l))
}

// Route is a flow route: the sequence of nodes from source to destination.
type Route []int

// Hops returns the number of hops (edges) in the route.
func (r Route) Hops() int { return len(r) - 1 }

// Src returns the route's first node.
func (r Route) Src() int { return r[0] }

// Dst returns the route's last node.
func (r Route) Dst() int { return r[len(r)-1] }

// Equal reports whether two routes visit the same node sequence.
func (r Route) Equal(o Route) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// Flow is one traffic flow: Size packets from Src to Dst, with one or more
// candidate Routes to choose from (a single route is the common case; the
// Octopus+ joint routing/scheduling problem uses several).
type Flow struct {
	ID     int     `json:"id"`
	Size   int     `json:"size"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Routes []Route `json:"routes"`

	// WeightHops, when positive, overrides the hop count from which the
	// flow's packet weight is derived (weight = 1/WeightHops), independent
	// of the actual route length. The UB baseline uses this so the
	// unordered one-hop decomposition of a flow keeps the original flow's
	// packet weight. Must be at least the hop count of every route.
	WeightHops int `json:"weight_hops,omitempty"`
}

// WeightLen returns the hop count from which packet weights for route r of
// this flow are derived: WeightHops if set, otherwise r's own hop count.
func (f *Flow) WeightLen(r Route) int {
	if f.WeightHops > 0 {
		return f.WeightHops
	}
	return r.Hops()
}

// Weight returns the packet weight of the flow's primary (first) route.
func (f *Flow) Weight() int64 { return Weight(f.WeightLen(f.Routes[0])) }

// Load is a traffic load: the set of flows to schedule within a window.
type Load struct {
	Flows []Flow `json:"flows"`
}

// TotalPackets returns the total number of packets across all flows.
func (l *Load) TotalPackets() int {
	total := 0
	for i := range l.Flows {
		total += l.Flows[i].Size
	}
	return total
}

// MaxHops returns 𝒟, the maximum route length over all flows and route
// choices, or 0 for an empty load.
func (l *Load) MaxHops() int {
	d := 0
	for i := range l.Flows {
		for _, r := range l.Flows[i].Routes {
			d = max(d, r.Hops())
		}
	}
	return d
}

// TotalWeightedHops returns the maximum attainable ψ value: every packet
// traversing its full primary route contributes hops·weight (= WeightScale
// unless the flow overrides WeightHops).
func (l *Load) TotalWeightedHops() int64 {
	var total int64
	for i := range l.Flows {
		f := &l.Flows[i]
		r := f.Routes[0]
		total += int64(f.Size) * int64(r.Hops()) * Weight(f.WeightLen(r))
	}
	return total
}

// TotalHops returns the total packet-hops required to deliver every packet
// over its primary route (used by the absolute capacity upper bound).
func (l *Load) TotalHops() int {
	total := 0
	for i := range l.Flows {
		total += l.Flows[i].Size * l.Flows[i].Routes[0].Hops()
	}
	return total
}

// Clone returns a deep copy of the load.
func (l *Load) Clone() *Load {
	c := &Load{Flows: make([]Flow, len(l.Flows))}
	for i, f := range l.Flows {
		cf := f
		cf.Routes = make([]Route, len(f.Routes))
		for j, r := range f.Routes {
			cf.Routes[j] = append(Route(nil), r...)
		}
		c.Flows[i] = cf
	}
	return c
}

// Validate checks structural invariants of the load against the fabric g:
// unique flow IDs, positive sizes, at least one route per flow, every route
// a valid path of g from Src to Dst with at most MaxRouteLen hops. Of
// several faults it reports the one of the lowest flow.
func (l *Load) Validate(g *graph.Digraph) error {
	if len(l.Flows) > par.Item {
		if err := l.validateAscending(g); err != errDescent {
			return err
		}
	}
	// Strictly ascending IDs (what every generator and codec emits) cannot
	// repeat; the set is built only from the first out-of-order flow on.
	var seen map[int]bool
	for i := range l.Flows {
		f := &l.Flows[i]
		if seen == nil && i > 0 && f.ID <= l.Flows[i-1].ID {
			seen = make(map[int]bool, len(l.Flows))
			for j := range l.Flows[:i] {
				seen[l.Flows[j].ID] = true
			}
		}
		if seen != nil {
			if seen[f.ID] {
				return fmt.Errorf("traffic: duplicate flow ID %d", f.ID)
			}
			seen[f.ID] = true
		}
		if err := f.check(g); err != nil {
			return err
		}
	}
	return nil
}

// errDescent reports an ID no greater than the one before it.
var errDescent = errors.New("traffic: flow IDs do not ascend")

// validateAscending is Validate on the shared pool, par.Item flows a work
// item: the fault of the lowest flow, or errDescent if a descent is lower.
func (l *Load) validateAscending(g *graph.Digraph) error {
	errs := make([]error, (len(l.Flows)+par.Item-1)/par.Item)
	par.For(0, len(errs), func(_, it int) {
		var err error // not errs[it]: neighbouring items share its cache line
		for i := it * par.Item; i < min(len(l.Flows), (it+1)*par.Item) && err == nil; i++ {
			if err = l.Flows[i].check(g); i > 0 && l.Flows[i].ID <= l.Flows[i-1].ID {
				err = errDescent
			}
		}
		errs[it] = err
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// check is Validate on one flow, but for its ID's uniqueness.
func (f *Flow) check(g *graph.Digraph) error {
	if f.Size <= 0 {
		return fmt.Errorf("traffic: flow %d has non-positive size %d", f.ID, f.Size)
	}
	if len(f.Routes) == 0 {
		return fmt.Errorf("traffic: flow %d has no routes", f.ID)
	}
	if f.WeightHops < 0 || f.WeightHops > MaxRouteLen {
		return fmt.Errorf("traffic: flow %d has invalid WeightHops %d", f.ID, f.WeightHops)
	}
	for _, r := range f.Routes {
		if r.Hops() < 1 || r.Hops() > MaxRouteLen {
			return fmt.Errorf("traffic: flow %d route %v has invalid hop count", f.ID, r)
		}
		if f.WeightHops > 0 && r.Hops() > f.WeightHops {
			return fmt.Errorf("traffic: flow %d route %v longer than WeightHops %d", f.ID, r, f.WeightHops)
		}
		if r.Src() != f.Src || r.Dst() != f.Dst {
			return fmt.Errorf("traffic: flow %d route %v does not connect %d->%d", f.ID, r, f.Src, f.Dst)
		}
		if g.IsRoute(r) {
			continue
		}
		// Name the offending hop when there is one; what is left is a
		// repeated node.
		for h := 0; h+1 < len(r); h++ {
			if !g.HasEdge(r[h], r[h+1]) {
				return fmt.Errorf("traffic: flow %d route %v: hop %d (%d->%d) is not a fabric link", f.ID, r, h, r[h], r[h+1])
			}
		}
		return fmt.Errorf("traffic: flow %d route %v is not a path of the fabric", f.ID, r)
	}
	return nil
}

// ErrNoRoute is returned by generators when no feasible route of the
// requested length exists between a sampled source and destination.
var ErrNoRoute = errors.New("traffic: no feasible route")
