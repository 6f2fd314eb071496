package traffic

// Store is a columnar (structure-of-arrays) flow store: every flow field
// lives in a parallel slice and all route node sequences share one arena,
// so a million-flow load costs a handful of large allocations instead of
// three small ones per flow. It is the ingest representation of streams.
//
// Layout: flow i has identity ids[i], size sizes[i], endpoints
// srcs[i]->dsts[i], and routes routeStart[i]..routeStart[i+1] (exclusive)
// in the route table; route r spans nodes[routeOff[r]:routeOff[r+1]].
// Node ids are int32 (a fabric with 2^31 nodes is far past any other
// limit in this repository).
type Store struct {
	ids, sizes, srcs, dsts []int32
	weightHops             []int8

	routeStart []int32 // len = Len()+1, indexes routeOff
	routeOff   []int32 // len = routes+1, indexes nodes
	nodes      []int32
}

// NewStore returns an empty store with capacity hints for flows and total
// route nodes (0 hints are fine).
func NewStore(flowHint, nodeHint int) *Store {
	return &Store{
		ids: make([]int32, 0, flowHint), sizes: make([]int32, 0, flowHint),
		srcs: make([]int32, 0, flowHint), dsts: make([]int32, 0, flowHint),
		weightHops: make([]int8, 0, flowHint),
		routeStart: make([]int32, 1, flowHint+1),
		routeOff:   make([]int32, 1, flowHint+1),
		nodes:      make([]int32, 0, nodeHint),
	}
}

// Len returns the number of flows in the store.
func (s *Store) Len() int { return len(s.ids) }

// NumRoutes returns the total number of routes across all flows.
func (s *Store) NumRoutes() int { return len(s.routeOff) - 1 }

// NumRouteNodes returns the total route node count (the arena length).
func (s *Store) NumRouteNodes() int { return len(s.nodes) }

// Bytes returns the resident size of the store's columns: the capacity of
// every backing array, in bytes. This is the store's whole variable-size
// footprint — flows and routes add columns here, nothing else.
func (s *Store) Bytes() uint64 {
	return 4*uint64(cap(s.ids)+cap(s.sizes)+cap(s.srcs)+cap(s.dsts)) +
		uint64(cap(s.weightHops)) +
		4*uint64(cap(s.routeStart)+cap(s.routeOff)+cap(s.nodes))
}

// Append adds one flow to the store. It enforces the flow schema
// (checkStreamFlow), which keeps every field within the int32/int8 column
// ranges.
func (s *Store) Append(f *Flow) error {
	if err := checkStreamFlow(f); err != nil {
		return err
	}
	s.appendHeader(f.ID, f.Size, f.Src, f.Dst, f.WeightHops)
	for _, r := range f.Routes {
		for _, v := range r {
			s.nodes = append(s.nodes, int32(v))
		}
		s.routeOff = append(s.routeOff, int32(len(s.nodes)))
	}
	s.routeStart = append(s.routeStart, int32(len(s.routeOff)-1))
	return nil
}

// appendHeader appends a flow's fields but its routes to the flow columns.
func (s *Store) appendHeader(id, size, src, dst, weightHops int) {
	s.ids = append(s.ids, int32(id))
	s.sizes = append(s.sizes, int32(size))
	s.srcs = append(s.srcs, int32(src))
	s.dsts = append(s.dsts, int32(dst))
	s.weightHops = append(s.weightHops, int8(weightHops))
}

// concat joins the stores, in order, into one with exactly sized columns.
func concat(parts []*Store) *Store {
	var flows, routes, nodes int
	for _, p := range parts {
		flows, routes, nodes = flows+p.Len(), routes+p.NumRoutes(), nodes+p.NumRouteNodes()
	}
	s := NewStore(flows, nodes)
	if routes != flows {
		s.routeOff = make([]int32, 1, routes+1)
	}
	for _, p := range parts {
		s.ids, s.sizes, s.srcs, s.dsts = append(s.ids, p.ids...), append(s.sizes, p.sizes...), append(s.srcs, p.srcs...), append(s.dsts, p.dsts...)
		s.weightHops = append(s.weightHops, p.weightHops...)
		r0, n0 := int32(s.NumRoutes()), int32(len(s.nodes))
		for _, r := range p.routeStart[1:] {
			s.routeStart = append(s.routeStart, r0+r)
		}
		for _, n := range p.routeOff[1:] {
			s.routeOff = append(s.routeOff, n0+n)
		}
		s.nodes = append(s.nodes, p.nodes...)
	}
	return s
}

// FromLoad converts a pointer-rich load into a columnar store.
func FromLoad(l *Load) (*Store, error) {
	s := NewStore(len(l.Flows), 0)
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
		}
	}
	return &Load{Flows: flows}
}
