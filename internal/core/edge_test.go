package core

import (
	"math/rand"
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

func TestBidirectionalExactBeatsOrMatchesGreedy(t *testing.T) {
	// On a general undirected fabric the blossom matcher should never lose
	// to the greedy+augment matcher.
	u := graph.NewU(7)
	// A 7-cycle plus chords: odd cycles exercise blossoms.
	for i := 0; i < 7; i++ {
		u.AddEdge(i, (i+1)%7)
	}
	u.AddEdge(0, 3)
	u.AddEdge(2, 5)
	d := u.Directed()
	load := &traffic.Load{}
	id := 1
	for i := 0; i < 7; i++ {
		load.Flows = append(load.Flows, traffic.Flow{
			ID: id, Size: 10 + i, Src: i, Dst: (i + 1) % 7,
			Routes: []traffic.Route{{i, (i + 1) % 7}},
		})
		id++
	}
	if err := load.Validate(d); err != nil {
		t.Fatal(err)
	}
	run := func(m Matcher) int {
		s, err := NewBidirectional(u, load, Options{Window: 60, Delta: 5, Matcher: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered
	}
	exact := run(MatcherExact)
	greedy := run(MatcherGreedy)
	if exact < greedy {
		t.Fatalf("blossom (%d) below greedy (%d)", exact, greedy)
	}
}

// TestBidirectionalPins pins ψ and delivered of bidirectional plans, exact
// (blossom) and greedy, full and ternary α search, on one fixed instance.
// Never edit the numbers: a plan that moves them is a different plan.
func TestBidirectionalPins(t *testing.T) {
	const n = 14
	u := graph.NewU(n)
	for i := range n {
		for j := i + 1; j < n; j++ {
			u.AddEdge(i, j)
		}
	}
	p := traffic.DefaultSyntheticParams(n, 800)
	p.NL, p.NS = 3, 6
	load, err := traffic.Synthetic(u.Directed(), p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		opt       Options
		psi       int64
		delivered int
	}{
		{"exact", Options{}, 8181465600, 3723},
		{"greedy", Options{Matcher: MatcherGreedy}, 7866270720, 3760},
		{"exact-b", Options{AlphaSearch: AlphaBinary}, 8181465600, 3723},
		{"greedy-b", Options{Matcher: MatcherGreedy, AlphaSearch: AlphaBinary}, 7995482880, 3682},
	} {
		c.opt.Window, c.opt.Delta = 800, 20
		s, err := NewBidirectional(u, load, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Psi != c.psi || res.Delivered != c.delivered {
			t.Errorf("%s: ψ %d, delivered %d; pinned %d, %d", c.name, res.Psi, res.Delivered, c.psi, c.delivered)
		}
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
