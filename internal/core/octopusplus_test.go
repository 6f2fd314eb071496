package core

import (
	"math/rand"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
)

// multiRouteInstance builds a seeded instance with k route choices per flow.
func multiRouteInstance(t *testing.T, seed int64, n, window, choices int) (*graph.Digraph, *traffic.Load) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.Complete(n)
	p := traffic.DefaultSyntheticParams(n, window)
	p.RouteChoices = choices
	load, err := traffic.Synthetic(g, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, load
}

func TestOctopusPlusRunsAndVerifies(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, load := multiRouteInstance(t, seed, 10, 300, 5)
		s, err := New(g, load, Options{Window: 300, Delta: 10, MultiRoute: true, KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.VerifyPlan(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Schedule.Cost() > 300 {
			t.Fatalf("cost %d over window", res.Schedule.Cost())
		}
		if res.Delivered+res.Pending != res.TotalPackets {
			t.Fatal("packet conservation violated")
		}
	}
}

func TestOctopusPlusBeatsRandomRouteChoice(t *testing.T) {
	// Fig 9(b)'s qualitative claim: Octopus+ outperforms picking a random
	// route per flow and running plain Octopus.
	var plusTotal, randTotal int
	for seed := int64(0); seed < 4; seed++ {
		g, load := multiRouteInstance(t, 50+seed, 12, 400, 10)
		s, err := New(g, load, Options{Window: 400, Delta: 10, MultiRoute: true})
		if err != nil {
			t.Fatal(err)
		}
		plus, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		plusTotal += plus.Delivered

		// Octopus-random: resolve one random route per flow, then plain
		// Octopus on the resolved load.
		rng := rand.New(rand.NewSource(seed))
		resolved := load.Clone()
		for i := range resolved.Flows {
			f := &resolved.Flows[i]
			f.Routes = []traffic.Route{f.Routes[rng.Intn(len(f.Routes))]}
		}
		s2, err := New(g, resolved, Options{Window: 400, Delta: 10})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := s2.Run()
		if err != nil {
			t.Fatal(err)
		}
		randTotal += rnd.Delivered
	}
	if plusTotal <= randTotal {
		t.Fatalf("Octopus+ (%d) did not beat Octopus-random (%d)", plusTotal, randTotal)
	}
}

func TestUncommittedSharedCount(t *testing.T) {
	// A flow with two disjoint first hops must not be double-served: total
	// service across both candidate links is bounded by the flow size.
	g := graph.Complete(4)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 3}, {0, 2, 3}}},
	}}
	tr := newRemaining(g, load, 0, true, true, false)
	// Both candidate first-hop links are queued.
	if got := tr.gValue(graph.Edge{From: 0, To: 1}, 10); got != 10*traffic.Weight(2) {
		t.Fatalf("g(0->1) = %d", got)
	}
	if got := tr.gValue(graph.Edge{From: 0, To: 2}, 10); got != 10*traffic.Weight(2) {
		t.Fatalf("g(0->2) = %d", got)
	}
	// Serve 6 over (0,1): the shared pool drops to 4 on both links.
	tr.apply([]graph.Edge{{From: 0, To: 1}}, 6)
	if got := tr.gValue(graph.Edge{From: 0, To: 2}, 10); got != 4*traffic.Weight(2) {
		t.Fatalf("after partial commit g(0->2) = %d", got)
	}
	if tr.hops != 6 {
		t.Fatalf("hops = %d", tr.hops)
	}
	if err := tr.sanity(); err != nil {
		t.Fatal(err)
	}
}

func TestCommonFirstHopCountedOnce(t *testing.T) {
	// Two candidate routes share the first hop (0,1): the packet must be
	// considered once on that link, credited with the shorter route.
	g := graph.Complete(4)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 2, 3}, {0, 1, 3}}},
	}}
	tr := newRemaining(g, load, 0, true, true, false)
	if got := tr.gValue(graph.Edge{From: 0, To: 1}, 100); got != 10*traffic.Weight(2) {
		t.Fatalf("g(0->1) = %d, want single count at 2-hop weight %d", got, 10*traffic.Weight(2))
	}
	// Serving commits to the 2-hop route.
	tr.apply([]graph.Edge{{From: 0, To: 1}}, 10)
	sf, ok := tr.lookup(sfKey{1, 1, 1})
	if !ok || sf.count != 10 {
		t.Fatalf("expected commit to route 1 at pos 1, got %+v", sf)
	}
}

func TestBacktrackingDelivery(t *testing.T) {
	// A flow committed onto a 3-hop route gets stranded mid-route; with
	// backtracking it can later be delivered over the direct link with its
	// prior progress annulled.
	g := graph.Complete(5)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 4, Routes: []traffic.Route{{0, 1, 2, 4}, {0, 4}}},
	}}
	tr := newRemaining(g, load, 0, true, true, true)
	// Commit onto the 3-hop route (serving the first hop 0->1).
	tr.apply([]graph.Edge{{From: 0, To: 1}}, 10)
	if tr.hops != 10 || tr.delivered != 0 {
		t.Fatalf("after first hop: hops=%d delivered=%d", tr.hops, tr.delivered)
	}
	psiAfterHop := tr.psi
	if psiAfterHop != 10*traffic.Weight(3) {
		t.Fatalf("psi after first hop = %d", psiAfterHop)
	}
	// The direct link (0,4) now carries a backtrack entry for the stranded
	// packets.
	if got := tr.gValue(graph.Edge{From: 0, To: 4}, 10); got != 10*traffic.Weight(1) {
		t.Fatalf("backtrack g(0->4) = %d", got)
	}
	// Serve the direct link: packets are delivered, prior progress annulled.
	tr.apply([]graph.Edge{{From: 0, To: 4}}, 10)
	if tr.delivered != 10 {
		t.Fatalf("delivered = %d, want 10", tr.delivered)
	}
	if tr.psi != 10*traffic.Weight(1) {
		t.Fatalf("psi after backtrack = %d, want %d (annulled)", tr.psi, 10*traffic.Weight(1))
	}
	if tr.hops != 10 {
		t.Fatalf("hops after backtrack = %d, want 10 (1 hop each, annulled)", tr.hops)
	}
	if err := tr.sanity(); err != nil {
		t.Fatal(err)
	}
}

func TestBacktrackPriorityOverAdvancement(t *testing.T) {
	// When both the direct link and the next-hop link are in the selected
	// configuration, the direct link wins (paper §6): packets stranded at
	// node 1 with next hop 2 and direct link (0,4) both active.
	g := graph.Complete(5)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 4, Routes: []traffic.Route{{0, 1, 2, 4}, {0, 4}}},
	}}
	tr := newRemaining(g, load, 0, true, true, false)
	tr.apply([]graph.Edge{{From: 0, To: 1}}, 10)
	// Apply a configuration containing both (1,2) and (0,4).
	tr.apply([]graph.Edge{{From: 0, To: 4}, {From: 1, To: 2}}, 10)
	if tr.delivered != 10 {
		t.Fatalf("delivered = %d, want all via direct link", tr.delivered)
	}
	// No packets advanced to node 2.
	if sf, ok := tr.lookup(sfKey{1, 0, 2}); ok && sf.count > 0 {
		t.Fatalf("packets advanced to pos 2 despite backtrack priority: %d", sf.count)
	}
}

func TestDisableBacktrack(t *testing.T) {
	g := graph.Complete(5)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 4, Routes: []traffic.Route{{0, 1, 2, 4}, {0, 4}}},
	}}
	tr := newRemaining(g, load, 0, true, false, false)
	tr.apply([]graph.Edge{{From: 0, To: 1}}, 10)
	if got := tr.gValue(graph.Edge{From: 0, To: 4}, 10); got != 0 {
		t.Fatalf("backtrack disabled but g(0->4) = %d", got)
	}
}

func TestPlainOctopusUsesPrimaryRoute(t *testing.T) {
	// Without MultiRoute, a multi-route load falls back to Routes[0].
	g, load := multiRouteInstance(t, 3, 8, 150, 4)
	s, err := New(g, load, Options{Window: 150, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The replay with route choice 0 must agree.
	sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != res.Delivered || sim.Psi != res.Psi {
		t.Fatalf("plan/replay mismatch: %d/%d vs %d/%d", res.Delivered, res.Psi, sim.Delivered, sim.Psi)
	}
}

func TestVerifyPlanDetectsTampering(t *testing.T) {
	g, load := multiRouteInstance(t, 9, 8, 200, 3)
	s, err := New(g, load, Options{Window: 200, Delta: 10, MultiRoute: true, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.trace) == 0 {
		t.Skip("no service events to tamper with")
	}
	if err := res.VerifyPlan(); err != nil {
		t.Fatal(err)
	}
	// Tamper with the claimed delivery count.
	res.Delivered++
	if err := res.VerifyPlan(); err == nil {
		t.Fatal("verifier accepted wrong delivered count")
	}
	res.Delivered--
	// Tamper with a trace record's count (overdraw).
	res.trace[0].Count += res.TotalPackets
	if err := res.VerifyPlan(); err == nil {
		t.Fatal("verifier accepted overdrawn record")
	}
}

func TestVerifyPlanRequiresTrace(t *testing.T) {
	g, load := multiRouteInstance(t, 10, 6, 100, 2)
	s, err := New(g, load, Options{Window: 100, Delta: 5, MultiRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifyPlan(); err == nil {
		t.Fatal("VerifyPlan without KeepTrace did not error")
	}
}

func TestMultiHopSchedulingImprovesChainedDelivery(t *testing.T) {
	// A pure 2-hop pipeline instance: with MultiHop configuration
	// selection, both links of a route land in one configuration and the
	// chained replay delivers more than half the packets in one window.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 50, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
	}}
	s, err := New(g, load, Options{Window: 80, Delta: 10, MultiHop: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The first configuration should contain both links (a chain).
	if len(res.Schedule.Configs) == 0 || len(res.Schedule.Configs[0].Links) != 2 {
		t.Fatalf("expected a chained configuration, got %v", res.Schedule.Configs)
	}
	sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{MultiHop: true})
	if err != nil {
		t.Fatal(err)
	}
	// Chained replay delivers at least the single-hop plan's bookkeeping.
	if sim.Delivered < res.Delivered {
		t.Fatalf("chained replay %d below plan %d", sim.Delivered, res.Delivered)
	}
	if sim.Delivered < 40 {
		t.Fatalf("chained delivery too low: %d", sim.Delivered)
	}
}

func TestChainedGreedyMatchesExample(t *testing.T) {
	// Paper §5: in Example 1, if a configuration contains both (d,a) and
	// (a,b), all (d,a,b)-flow packets can be delivered in one
	// configuration. The chained evaluator must see that benefit.
	g, load := example1()
	s, err := New(g, load, Options{Window: 300, Delta: 0, MultiHop: true})
	if err != nil {
		t.Fatal(err)
	}
	const a, b, d = 0, 1, 3
	chain := []graph.Edge{{From: d, To: a}, {From: a, To: b}}
	got := s.evalChain(chain, 51)
	// 50 packets cross (d,a) [weight 1/2 each] and chain across (a,b)
	// [another 1/2], plus (a,b) also serves the (a,c)-flow packets queued
	// at a: 50 crossings at weight 1/2 ... (a,b) serves up to 51 packets:
	// flow 1's 51 (weight 1/2, flow ID 1) beat the chained flow-3 arrivals
	// of equal weight but higher ID.
	want := int64(50)*traffic.Weight(2) + int64(51)*traffic.Weight(2)
	if got != want {
		t.Fatalf("evalChain = %d, want %d", got, want)
	}
}
