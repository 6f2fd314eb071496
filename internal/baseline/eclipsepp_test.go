package baseline

import (
	"testing"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
)

func TestEclipsePlusPlusIgnoresNominalRoute(t *testing.T) {
	// The flow's nominal route is 0->1->3, but the given sequence only
	// activates 0->2 then 2->3: Eclipse++ may re-route through node 2,
	// while the fixed-route simulator replay delivers nothing.
	g := graph.Complete(4)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 3}}},
	}}
	sch := &schedule.Schedule{Delta: 0, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 2}}, Alpha: 10},
		{Links: []graph.Edge{{From: 2, To: 3}}, Alpha: 10},
	}}
	epp, err := EclipsePlusPlus(g, load, sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if epp.Delivered != 10 {
		t.Fatalf("Eclipse++ delivered %d, want 10 (re-routed)", epp.Delivered)
	}
	if epp.Hops != 20 {
		t.Fatalf("hops = %d, want 20", epp.Hops)
	}
	sim, err := simulate.Run(g, load, sch, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != 0 {
		t.Fatalf("fixed-route replay delivered %d, want 0", sim.Delivered)
	}
}

func TestEclipsePlusPlusRespectsCapacity(t *testing.T) {
	// Two flows compete for one 10-slot link: only 10 packets total cross.
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 8, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		{ID: 2, Size: 8, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	sch := &schedule.Schedule{Delta: 0, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 10},
	}}
	epp, err := EclipsePlusPlus(g, load, sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if epp.Delivered != 10 {
		t.Fatalf("delivered %d, want 10 (capacity)", epp.Delivered)
	}
}

func TestEclipsePlusPlusHopOrdering(t *testing.T) {
	// The sequence activates the second hop *before* the first: no path
	// respects time ordering, so nothing is delivered.
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 5, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
	}}
	sch := &schedule.Schedule{Delta: 0, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 1, To: 2}}, Alpha: 5},
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 5},
	}}
	epp, err := EclipsePlusPlus(g, load, sch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if epp.Delivered != 0 {
		t.Fatalf("delivered %d through a time-reversed sequence", epp.Delivered)
	}
}

func TestEclipsePlusPlusDominatesReplay(t *testing.T) {
	// Re-routing freedom means Eclipse++ should never deliver less than
	// the fixed-route VOQ replay over the same Eclipse schedule.
	for seed := int64(0); seed < 3; seed++ {
		g, load := synthetic(t, 70+seed, 12, 400)
		sim, sch, err := EclipseBased(g, load, 400, 10, core.MatcherExact)
		if err != nil {
			t.Fatal(err)
		}
		epp, err := EclipsePlusPlus(g, load, sch, 400)
		if err != nil {
			t.Fatal(err)
		}
		if epp.Delivered < sim.Delivered {
			t.Fatalf("seed %d: Eclipse++ %d below replay %d", seed, epp.Delivered, sim.Delivered)
		}
		if epp.Delivered > epp.TotalPackets {
			t.Fatal("overdelivery")
		}
	}
}

func TestEclipseBasedPlusPlus(t *testing.T) {
	g, load := synthetic(t, 80, 10, 300)
	// The paper-faithful Eclipse-Based baseline: Eclipse over the unordered
	// one-hop load, then Eclipse++ routing of the multi-hop traffic over it.
	_, ecl, err := Eclipse(g, OneHopLoad(load, false).Load, 300, 10, core.MatcherExact)
	if err != nil {
		t.Fatal(err)
	}
	epp, err := EclipsePlusPlus(g, load, ecl.Schedule, 300)
	if err != nil {
		t.Fatal(err)
	}
	if epp.Delivered <= 0 || epp.Utilization() <= 0 || epp.DeliveredFraction() <= 0 {
		t.Fatalf("degenerate result %+v", epp)
	}
	// Octopus still wins: the Eclipse sequence was chosen blind to hop
	// ordering.
	s, err := core.New(g, load, core.Options{Window: 300, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if epp.Delivered >= res.Delivered {
		t.Fatalf("Eclipse-Based++ %d not below Octopus %d", epp.Delivered, res.Delivered)
	}
}

func TestEclipsePlusPlusWindowTruncation(t *testing.T) {
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 50, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	sch := &schedule.Schedule{Delta: 10, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 30},
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 30},
	}}
	epp, err := EclipsePlusPlus(g, load, sch, 55)
	if err != nil {
		t.Fatal(err)
	}
	// Δ(10)+30, then Δ(10)+5 remaining: 35 packets.
	if epp.Delivered != 35 {
		t.Fatalf("delivered %d, want 35", epp.Delivered)
	}
}
