package core

import (
	"testing"

	"octopus/internal/graph"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
)

// Edge cases around window boundaries and degenerate instances.

func TestWindowBarelyFitsOneConfig(t *testing.T) {
	g := graph.Complete(2)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 100, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	// Window = Delta + 1: exactly one slot of service fits.
	s, err := New(g, load, Options{Window: 11, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered %d, want 1", res.Delivered)
	}
	if res.Schedule.Cost() != 11 {
		t.Fatalf("cost %d", res.Schedule.Cost())
	}
}

func TestZeroDelta(t *testing.T) {
	g, load := randomInstance(t, 3, 8, 120)
	s, err := New(g, load, Options{Window: 120, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Cost() > 120 {
		t.Fatalf("cost %d", res.Schedule.Cost())
	}
	sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != res.Delivered {
		t.Fatalf("plan %d vs replay %d", res.Delivered, sim.Delivered)
	}
}

func TestSingleFlowSinglePacket(t *testing.T) {
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 1, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
	}}
	s, err := New(g, load, Options{Window: 100, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Hops != 2 {
		t.Fatalf("delivered=%d hops=%d", res.Delivered, res.Hops)
	}
	// The schedule needs at least two configurations (one hop per config).
	if len(res.Schedule.Configs) < 2 {
		t.Fatalf("configs = %v", res.Schedule.Configs)
	}
}

func TestHugeAlphaCandidateClamp(t *testing.T) {
	// One enormous flow: the natural alpha candidate (its size) exceeds
	// the window and must be clamped.
	g := graph.Complete(2)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 100000, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	s, err := New(g, load, Options{Window: 50, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 40 {
		t.Fatalf("delivered %d, want 40 (window minus delta)", res.Delivered)
	}
}

func TestMultiPortGreedyMatcher(t *testing.T) {
	g, load := randomInstance(t, 5, 8, 150)
	s, err := New(g, load, Options{Window: 150, Delta: 5, Ports: 2, Matcher: MatcherGreedy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(g, 150, 2); err != nil {
		t.Fatal(err)
	}
	sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{Ports: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != res.Delivered {
		t.Fatalf("plan %d vs replay %d", res.Delivered, sim.Delivered)
	}
}

func TestPartialFabricAgreement(t *testing.T) {
	// Partial fabrics with longer forced routes still keep plan/replay
	// agreement.
	g := graph.ChordRing(12, 3)
	load := &traffic.Load{}
	id := 1
	for i := 0; i < 12; i += 2 {
		r, ok := traffic.ShortestRoute(g, i, (i+7)%12)
		if !ok {
			t.Fatalf("no route %d->%d", i, (i+7)%12)
		}
		load.Flows = append(load.Flows, traffic.Flow{
			ID: id, Size: 25, Src: i, Dst: (i + 7) % 12, Routes: []traffic.Route{r},
		})
		id++
	}
	s, err := New(g, load, Options{Window: 200, Delta: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != res.Delivered || sim.Psi != res.Psi {
		t.Fatalf("plan (%d, %d) vs replay (%d, %d)", res.Delivered, res.Psi, sim.Delivered, sim.Psi)
	}
}
