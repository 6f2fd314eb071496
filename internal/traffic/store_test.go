package traffic

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"octopus/internal/graph"
)

// The Store's test-side API: conversion from a load and column reads.

// TotalPackets returns the total packet count across all flows.
func (s *Store) TotalPackets() int64 {
	var total int64
	for _, sz := range s.sizes {
		total += int64(sz)
	}
	return total
}

// Src, Dst and Size expose the endpoint/size columns of flow i without
// materializing it; the sharded scheduler partitions flows by pod this
// way.
func (s *Store) Src(i int) int  { return int(s.srcs[i]) }
func (s *Store) Dst(i int) int  { return int(s.dsts[i]) }
func (s *Store) Size(i int) int { return int(s.sizes[i]) }

func storeFixtureLoad() *Load {
	return &Load{Flows: []Flow{
		{ID: 0, Size: 5, Src: 0, Dst: 2, Routes: []Route{{0, 1, 2}, {0, 3, 2}}, WeightHops: 2},
		{ID: 1, Size: 1, Src: 3, Dst: 1, Routes: []Route{{3, 1}}},
		{ID: 2, Size: 9, Src: 2, Dst: 0, Routes: []Route{{2, 0}}},
	}}
}

// TestFlowIsTheScheduleSchema: a Flow holds the paper's (ID, size, src,
// dst, routes) and the weight override, nothing else; on 64-bit platforms
// that is 64 bytes. Redundancy is provisioned (Provision), not stored.
func TestFlowIsTheScheduleSchema(t *testing.T) {
	if s := unsafe.Sizeof(Flow{}); unsafe.Sizeof(0) == 8 && s != 64 {
		t.Fatalf("Flow is %d bytes, want 64", s)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	l := storeFixtureLoad()
	s, err := FromLoad(l)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.NumRoutes() != 4 || s.NumRouteNodes() != 10 {
		t.Fatalf("dims = %d flows, %d routes, %d nodes", s.Len(), s.NumRoutes(), s.NumRouteNodes())
	}
	if s.TotalPackets() != 15 {
		t.Fatalf("TotalPackets = %d, want 15", s.TotalPackets())
	}
	for i := range l.Flows {
		if got := s.FlowAt(i); !reflect.DeepEqual(got, l.Flows[i]) {
			t.Fatalf("FlowAt(%d) = %+v, want %+v", i, got, l.Flows[i])
		}
		if s.Src(i) != l.Flows[i].Src || s.Dst(i) != l.Flows[i].Dst || s.Size(i) != l.Flows[i].Size {
			t.Fatalf("column accessors disagree for flow %d", i)
		}
	}
	if got := s.Materialize(nil); !reflect.DeepEqual(got, l) {
		t.Fatalf("Materialize(nil) = %+v, want %+v", got, l)
	}
}

func TestStoreMaterializeSubset(t *testing.T) {
	s, err := FromLoad(storeFixtureLoad())
	if err != nil {
		t.Fatal(err)
	}
	got := s.Materialize([]int{2, 0})
	want := storeFixtureLoad()
	if len(got.Flows) != 2 ||
		!reflect.DeepEqual(got.Flows[0], want.Flows[2]) ||
		!reflect.DeepEqual(got.Flows[1], want.Flows[0]) {
		t.Fatalf("subset materialization = %+v", got.Flows)
	}
	// Empty selection is a valid (empty) load.
	if empty := s.Materialize([]int{}); len(empty.Flows) != 0 {
		t.Fatalf("empty selection produced %d flows", len(empty.Flows))
	}
}

// Materialized loads must stay intact if the store keeps growing: the
// capacity-capped subslices may not alias appends.
func TestStoreMaterializeNoAliasing(t *testing.T) {
	s := NewStore(0, 0)
	f0 := Flow{ID: 0, Size: 1, Src: 0, Dst: 1, Routes: []Route{{0, 1}}}
	if err := s.Append(&f0); err != nil {
		t.Fatal(err)
	}
	snap := s.Materialize(nil)
	for i := 1; i < 100; i++ {
		f := Flow{ID: i, Size: 1, Src: 0, Dst: 1, Routes: []Route{{0, 1}}}
		if err := s.Append(&f); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(snap.Flows[0], f0) || len(snap.Flows) != 1 {
		t.Fatalf("materialized snapshot mutated by later appends: %+v", snap.Flows)
	}
}

func TestStoreAppendRejects(t *testing.T) {
	cases := []Flow{
		{ID: 0, Size: 1, Src: 0, Dst: 1},                                                                 // no routes
		{ID: 0, Size: 1, Src: 0, Dst: 0, Routes: []Route{{0}}},                                           // degenerate route
		{ID: 0, Size: 1, Src: 0, Dst: 1, Routes: []Route{{0, 2}}},                                        // route misses endpoints
		{ID: -1, Size: 1, Src: 0, Dst: 1, Routes: []Route{{0, 1}}},                                       // negative id
		{ID: 0, Size: 1, Src: 0, Dst: 1, Routes: []Route{{0, 1}}, WeightHops: 99},                        // bad weight hops
		{ID: 0, Size: 1, Src: 0, Dst: 1, Routes: []Route{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1}}}, // too long
	}
	for i, f := range cases {
		if err := NewStore(0, 0).Append(&f); err == nil {
			t.Errorf("case %d accepted: %+v", i, f)
		}
	}
}

func TestStoreValidate(t *testing.T) {
	g := graph.Complete(4)
	s, err := FromLoad(storeFixtureLoad())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(nil).Validate(g); err != nil {
		t.Fatalf("valid store rejected: %v", err)
	}
	// Duplicate ID.
	dup := Flow{ID: 0, Size: 1, Src: 0, Dst: 1, Routes: []Route{{0, 1}}}
	if err := s.Append(&dup); err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(nil).Validate(g); err == nil {
		t.Fatal("duplicate flow ID accepted")
	}
	// Route off the fabric.
	s2 := NewStore(0, 0)
	far := Flow{ID: 0, Size: 1, Src: 0, Dst: 9, Routes: []Route{{0, 9}}}
	if err := s2.Append(&far); err != nil {
		t.Fatal(err)
	}
	if err := s2.Materialize(nil).Validate(g); err == nil {
		t.Fatal("off-fabric route accepted")
	}
}

func TestStoreAgainstSynthetic(t *testing.T) {
	g := graph.Complete(8)
	l, err := Synthetic(g, DefaultSyntheticParams(8, 64), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromLoad(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(nil).Validate(g); err != nil {
		t.Fatal(err)
	}
	if got := s.Materialize(nil); !reflect.DeepEqual(got, l) {
		t.Fatal("synthetic load does not round-trip through the store")
	}
}
