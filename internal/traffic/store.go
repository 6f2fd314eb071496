package traffic

import (
	"fmt"
	"math"

	"octopus/internal/graph"
)

// Store is a columnar (structure-of-arrays) flow store: every flow field
// lives in a parallel slice and all route node sequences share one arena,
// so a million-flow load costs a handful of large allocations instead of
// three small ones per flow. It is the ingest representation for streamed
// traces and the source the pod-sharded scheduler materializes per-shard
// loads from.
//
// Layout: flow i has identity ids[i], size sizes[i], endpoints
// srcs[i]->dsts[i], and routes routeStart[i]..routeStart[i+1] (exclusive)
// in the route table; route r spans nodes[routeOff[r]:routeOff[r+1]].
// Node ids are int32 (a fabric with 2^31 nodes is far past any other
// limit in this repository).
type Store struct {
	ids        []int32
	sizes      []int32
	srcs       []int32
	dsts       []int32
	weightHops []int8
	critical   []bool
	redundant  []int8

	routeStart []int32 // len = Len()+1, indexes routeOff
	routeOff   []int32 // len = routes+1, indexes nodes
	nodes      []int32
}

// NewStore returns an empty store with capacity hints for flows and total
// route nodes (0 hints are fine).
func NewStore(flowHint, nodeHint int) *Store {
	s := &Store{
		ids:        make([]int32, 0, flowHint),
		sizes:      make([]int32, 0, flowHint),
		srcs:       make([]int32, 0, flowHint),
		dsts:       make([]int32, 0, flowHint),
		weightHops: make([]int8, 0, flowHint),
		critical:   make([]bool, 0, flowHint),
		redundant:  make([]int8, 0, flowHint),
		routeStart: make([]int32, 1, flowHint+1),
		routeOff:   make([]int32, 1, flowHint+1),
		nodes:      make([]int32, 0, nodeHint),
	}
	return s
}

// Len returns the number of flows in the store.
func (s *Store) Len() int { return len(s.ids) }

// NumRoutes returns the total number of routes across all flows.
func (s *Store) NumRoutes() int { return len(s.routeOff) - 1 }

// NumRouteNodes returns the total route node count (the arena length).
func (s *Store) NumRouteNodes() int { return len(s.nodes) }

// TotalPackets returns the total packet count across all flows.
func (s *Store) TotalPackets() int64 {
	var total int64
	for _, sz := range s.sizes {
		total += int64(sz)
	}
	return total
}

// Bytes returns the resident size of the store's columns: the capacity of
// every backing array, in bytes. This is the store's whole variable-size
// footprint — flows and routes add columns here, nothing else.
func (s *Store) Bytes() uint64 {
	return 4*uint64(cap(s.ids)+cap(s.sizes)+cap(s.srcs)+cap(s.dsts)) +
		uint64(cap(s.weightHops)+cap(s.critical)+cap(s.redundant)) +
		4*uint64(cap(s.routeStart)+cap(s.routeOff)+cap(s.nodes))
}

// Append adds one flow to the store. It enforces the same structural
// invariants as ReadJSON: at least one route, no degenerate routes, every
// route connecting the flow's endpoints, and fields within the int32/int8
// column ranges.
func (s *Store) Append(f *Flow) error {
	if len(f.Routes) == 0 {
		return fmt.Errorf("traffic: flow %d has no routes", f.ID)
	}
	if f.ID < 0 || int64(f.ID) > math.MaxInt32 {
		return fmt.Errorf("traffic: flow id %d out of store range", f.ID)
	}
	if f.Size < 0 || int64(f.Size) > math.MaxInt32 {
		return fmt.Errorf("traffic: flow %d size %d out of store range", f.ID, f.Size)
	}
	if f.WeightHops < 0 || f.WeightHops > MaxRouteLen {
		return fmt.Errorf("traffic: flow %d has invalid WeightHops %d", f.ID, f.WeightHops)
	}
	if f.Redundant < 0 || f.Redundant > len(f.Routes) {
		return fmt.Errorf("traffic: flow %d claims %d redundant routes but has %d", f.ID, f.Redundant, len(f.Routes))
	}
	for _, r := range f.Routes {
		if len(r) < 2 {
			return fmt.Errorf("traffic: flow %d has a degenerate route", f.ID)
		}
		if len(r) > MaxRouteLen+1 {
			return fmt.Errorf("traffic: flow %d route exceeds %d hops", f.ID, MaxRouteLen)
		}
		if r.Src() != f.Src || r.Dst() != f.Dst {
			return fmt.Errorf("traffic: flow %d route %v does not connect %d->%d", f.ID, r, f.Src, f.Dst)
		}
		for _, v := range r {
			if v < 0 || int64(v) > math.MaxInt32 {
				return fmt.Errorf("traffic: flow %d route node %d out of store range", f.ID, v)
			}
		}
	}
	s.ids = append(s.ids, int32(f.ID))
	s.sizes = append(s.sizes, int32(f.Size))
	s.srcs = append(s.srcs, int32(f.Src))
	s.dsts = append(s.dsts, int32(f.Dst))
	s.weightHops = append(s.weightHops, int8(f.WeightHops))
	s.critical = append(s.critical, f.Critical)
	s.redundant = append(s.redundant, int8(f.Redundant))
	for _, r := range f.Routes {
		for _, v := range r {
			s.nodes = append(s.nodes, int32(v))
		}
		s.routeOff = append(s.routeOff, int32(len(s.nodes)))
	}
	s.routeStart = append(s.routeStart, int32(len(s.routeOff)-1))
	return nil
}

// FromLoad converts a pointer-rich load into a columnar store.
func FromLoad(l *Load) (*Store, error) {
	nodeCount := 0
	for i := range l.Flows {
		for _, r := range l.Flows[i].Routes {
			nodeCount += len(r)
		}
	}
	s := NewStore(len(l.Flows), nodeCount)
	for i := range l.Flows {
		if err := s.Append(&l.Flows[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// FlowAt materializes flow i as a standalone Flow (routes copied out of
// the arena). For bulk access prefer Materialize, which shares backing
// arrays across the whole result.
func (s *Store) FlowAt(i int) Flow {
	f := Flow{
		ID:         int(s.ids[i]),
		Size:       int(s.sizes[i]),
		Src:        int(s.srcs[i]),
		Dst:        int(s.dsts[i]),
		WeightHops: int(s.weightHops[i]),
		Critical:   s.critical[i],
		Redundant:  int(s.redundant[i]),
	}
	lo, hi := s.routeStart[i], s.routeStart[i+1]
	f.Routes = make([]Route, 0, hi-lo)
	for r := lo; r < hi; r++ {
		a, b := s.routeOff[r], s.routeOff[r+1]
		route := make(Route, b-a)
		for k := a; k < b; k++ {
			route[k-a] = int(s.nodes[k])
		}
		f.Routes = append(f.Routes, route)
	}
	return f
}

// Src, Dst and Size expose the endpoint/size columns of flow i without
// materializing it; the sharded scheduler partitions flows by pod this
// way.
func (s *Store) Src(i int) int  { return int(s.srcs[i]) }
func (s *Store) Dst(i int) int  { return int(s.dsts[i]) }
func (s *Store) Size(i int) int { return int(s.sizes[i]) }

// Materialize builds a Load holding the selected flows (all flows when
// idx is nil, in store order). The result shares three backing arrays —
// one []Flow, one []Route table, and one []int node arena — instead of
// allocating per flow, which is what keeps million-flow shard loads off
// the allocator's hot path. The returned load is independent of later
// store appends but MUST NOT have its route contents mutated in place
// (scheduler contracts already forbid that: algorithms never mutate their
// input load).
func (s *Store) Materialize(idx []int) *Load {
	n := len(idx)
	if idx == nil {
		n = s.Len()
	}
	flowAt := func(k int) int {
		if idx == nil {
			return k
		}
		return idx[k]
	}
	routeCount, nodeCount := 0, 0
	for k := 0; k < n; k++ {
		i := flowAt(k)
		lo, hi := s.routeStart[i], s.routeStart[i+1]
		routeCount += int(hi - lo)
		nodeCount += int(s.routeOff[hi] - s.routeOff[lo])
	}
	flows := make([]Flow, n)
	routeTab := make([]Route, 0, routeCount)
	arena := make([]int, 0, nodeCount)
	for k := 0; k < n; k++ {
		i := flowAt(k)
		lo, hi := s.routeStart[i], s.routeStart[i+1]
		tabStart := len(routeTab)
		for r := lo; r < hi; r++ {
			a, b := s.routeOff[r], s.routeOff[r+1]
			nodeStart := len(arena)
			for p := a; p < b; p++ {
				arena = append(arena, int(s.nodes[p]))
			}
			routeTab = append(routeTab, Route(arena[nodeStart:len(arena):len(arena)]))
		}
		flows[k] = Flow{
			ID:         int(s.ids[i]),
			Size:       int(s.sizes[i]),
			Src:        int(s.srcs[i]),
			Dst:        int(s.dsts[i]),
			Routes:     routeTab[tabStart:len(routeTab):len(routeTab)],
			WeightHops: int(s.weightHops[i]),
			Critical:   s.critical[i],
			Redundant:  int(s.redundant[i]),
		}
	}
	return &Load{Flows: flows}
}

// Validate checks every stored flow against fabric g, exactly like
// Load.Validate but without materializing a Load.
func (s *Store) Validate(g *graph.Digraph) error {
	// The structural per-flow checks ran in Append; here only fabric
	// membership and route-path validity remain, plus ID uniqueness.
	seen := make(map[int32]bool, s.Len())
	var route []int
	for i := 0; i < s.Len(); i++ {
		if seen[s.ids[i]] {
			return fmt.Errorf("traffic: duplicate flow ID %d", s.ids[i])
		}
		seen[s.ids[i]] = true
		if s.sizes[i] <= 0 {
			return fmt.Errorf("traffic: flow %d has non-positive size %d", s.ids[i], s.sizes[i])
		}
		lo, hi := s.routeStart[i], s.routeStart[i+1]
		for r := lo; r < hi; r++ {
			a, b := s.routeOff[r], s.routeOff[r+1]
			if int(s.weightHops[i]) > 0 && int(b-a)-1 > int(s.weightHops[i]) {
				return fmt.Errorf("traffic: flow %d route longer than WeightHops %d", s.ids[i], s.weightHops[i])
			}
			route = route[:0]
			for k := a; k < b; k++ {
				route = append(route, int(s.nodes[k]))
			}
			if !g.IsRoute(route) {
				return fmt.Errorf("traffic: flow %d route %v is not a path of the fabric", s.ids[i], route)
			}
		}
	}
	return nil
}
