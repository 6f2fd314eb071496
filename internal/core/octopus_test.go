package core

import (
	"math/rand"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// example1 is the paper's Figure 1 instance (see simulate tests).
func example1() (*graph.Digraph, *traffic.Load) {
	const a, b, c, d = 0, 1, 2, 3
	g := graph.New(4)
	g.AddEdge(d, a)
	g.AddEdge(a, b)
	g.AddEdge(c, b)
	g.AddEdge(b, a)
	g.AddEdge(b, c)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 100, Src: a, Dst: c, Routes: []traffic.Route{{a, b, c}}},
		{ID: 2, Size: 50, Src: c, Dst: a, Routes: []traffic.Route{{c, b, a}}},
		{ID: 3, Size: 50, Src: d, Dst: b, Routes: []traffic.Route{{d, a, b}}},
	}}
	return g, load
}

func TestPaperExample1Octopus(t *testing.T) {
	g, load := example1()
	s, err := New(g, load, Options{Window: 300, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Octopus should reach the optimal: all 200 packets delivered, ψ = 200
	// unit-weight packets (the paper's optimal for this instance).
	if res.Delivered != 200 {
		t.Fatalf("Delivered = %d, want 200", res.Delivered)
	}
	if res.Psi != 200*traffic.WeightScale {
		t.Fatalf("Psi = %d, want %d", res.Psi, 200*traffic.WeightScale)
	}
	if res.Schedule.Cost() > 300 {
		t.Fatalf("cost %d exceeds window", res.Schedule.Cost())
	}
	// The plan bookkeeping must match a packet-level replay exactly.
	sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != res.Delivered || sim.Psi != res.Psi || sim.Hops != res.Hops {
		t.Fatalf("plan/replay mismatch: plan (%d, %d, %d), replay (%d, %d, %d)",
			res.Delivered, res.Psi, res.Hops, sim.Delivered, sim.Psi, sim.Hops)
	}
}

func TestBenefitExample(t *testing.T) {
	// Paper §4: B((M4,50), ∅) = 0 and B((M4,50), ⟨(M3,50)⟩) = 25.
	const a, b, c = 0, 1, 2
	g, load := example1()
	tr := newRemaining(g, load, 0, false, false, false)
	m4 := graph.Edge{From: b, To: a}
	if got := tr.gValue(m4, 50); got != 0 {
		t.Fatalf("B((M4,50), empty) = %d, want 0", got)
	}
	// Apply (M3, 50): route 50 (c,a)-flow packets over (c,b).
	tr.apply([]graph.Edge{{From: c, To: b}}, 50)
	want := int64(50) * traffic.Weight(2) // 25 unit-weight packets
	if got := tr.gValue(m4, 50); got != want {
		t.Fatalf("B((M4,50), (M3,50)) = %d, want %d", got, want)
	}
	// More generally B((M4,50),(M3,α)) = α/2 for α <= 50.
	tr2 := newRemaining(g, load, 0, false, false, false)
	tr2.apply([]graph.Edge{{From: c, To: b}}, 20)
	if got := tr2.gValue(m4, 50); got != 20*traffic.Weight(2) {
		t.Fatalf("B((M4,50),(M3,20)) = %d", got)
	}
}

// randomInstance builds a seeded synthetic MHS instance for cross-checks.
func randomInstance(t *testing.T, seed int64, n, window int) (*graph.Digraph, *traffic.Load) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.Complete(n)
	p := traffic.DefaultSyntheticParams(n, window)
	load, err := traffic.Synthetic(g, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, load
}

func TestSchedulerSimulatorAgreement(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, load := randomInstance(t, seed, 12, 400)
		for _, opt := range []Options{
			{Window: 400, Delta: 10},
			{Window: 400, Delta: 10, Matcher: MatcherGreedy},
			{Window: 400, Delta: 10, AlphaSearch: AlphaBinary},
			{Window: 400, Delta: 10, Epsilon64: 4},
			{Window: 400, Delta: 0},
		} {
			s, err := New(g, load, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{Epsilon64: opt.Epsilon64})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Delivered != res.Delivered || sim.Psi != res.Psi || sim.Hops != res.Hops {
				t.Fatalf("seed %d opt %+v: plan (%d pkts, ψ=%d, %d hops) vs replay (%d, %d, %d)",
					seed, opt, res.Delivered, res.Psi, res.Hops, sim.Delivered, sim.Psi, sim.Hops)
			}
			if res.Schedule.Cost() > opt.Window {
				t.Fatalf("cost %d exceeds window %d", res.Schedule.Cost(), opt.Window)
			}
			if err := res.Schedule.Validate(g, opt.Window, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDeliversEverythingGivenTime(t *testing.T) {
	g, load := randomInstance(t, 42, 10, 200)
	s, err := New(g, load, Options{Window: 1 << 20, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 0 || res.Delivered != load.TotalPackets() {
		t.Fatalf("pending %d, delivered %d of %d", res.Pending, res.Delivered, load.TotalPackets())
	}
	if res.Psi != load.TotalWeightedHops() {
		t.Fatalf("full delivery ψ = %d, want %d", res.Psi, load.TotalWeightedHops())
	}
}

func TestAlphaCandidatesCoverExhaustiveSearch(t *testing.T) {
	// Lemma 3: the best benefit-per-cost over the Procedure 1 candidates
	// matches the best over every α in [1, maxAlpha].
	for seed := int64(0); seed < 10; seed++ {
		g, load := randomInstance(t, 100+seed, 6, 60)
		s, err := New(g, load, Options{Window: 1000, Delta: 7})
		if err != nil {
			t.Fatal(err)
		}
		// Advance a couple of iterations so T^r is nontrivial.
		s.Step()
		const maxAlpha = 80
		bestOf := func(as []int) *best {
			ws := make([]int64, len(as))
			s.forAlphas(as, len(as), func(sc *evalScratch, j int, _, col []int64) { _, ws[j] = s.evalAlpha(sc, as[j], col) })
			b := &best{delta: s.opt.Delta}
			for j, a := range as {
				b.consider(nil, a, ws[j])
			}
			return b
		}
		bestCand := bestOf(s.tr.candidateAlphas(maxAlpha))
		var all []int
		for a := 1; a <= maxAlpha; a++ {
			all = append(all, a)
		}
		bestAll := bestOf(all)
		if bestAll.benefit*int64(bestCand.alpha+s.opt.Delta) > bestCand.benefit*int64(bestAll.alpha+s.opt.Delta) {
			t.Fatalf("seed %d: exhaustive ratio (%d/%d) beats candidate ratio (%d/%d)",
				seed, bestAll.benefit, bestAll.alpha+s.opt.Delta, bestCand.benefit, bestCand.alpha+s.opt.Delta)
		}
	}
}

func TestPsiMonotoneUnderApply(t *testing.T) {
	// Lemma 1 analog: applying more configurations never decreases ψ.
	g, load := randomInstance(t, 7, 8, 100)
	tr := newRemaining(g, load, 0, false, false, false)
	rng := rand.New(rand.NewSource(9))
	prev := tr.psi
	for k := 0; k < 50; k++ {
		var links []graph.Edge
		usedF := map[int]bool{}
		usedT := map[int]bool{}
		for tries := 0; tries < 5; tries++ {
			i, j := rng.Intn(8), rng.Intn(8)
			if i != j && !usedF[i] && !usedT[j] && g.HasEdge(i, j) {
				links = append(links, graph.Edge{From: i, To: j})
				usedF[i] = true
				usedT[j] = true
			}
		}
		tr.apply(links, 1+rng.Intn(30))
		if tr.psi < prev {
			t.Fatalf("ψ decreased: %d -> %d", prev, tr.psi)
		}
		prev = tr.psi
		if err := tr.sanity(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBenefitDefinitionConsistency(t *testing.T) {
	// Equation 2/3: B((M,α),S) computed from g() equals ψ(⟨S,(M,α)⟩)−ψ(S).
	g, load := randomInstance(t, 11, 8, 100)
	tr := newRemaining(g, load, 0, false, false, false)
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 40; k++ {
		var links []graph.Edge
		usedF := map[int]bool{}
		usedT := map[int]bool{}
		for tries := 0; tries < 4; tries++ {
			i, j := rng.Intn(8), rng.Intn(8)
			if i != j && !usedF[i] && !usedT[j] && g.HasEdge(i, j) {
				links = append(links, graph.Edge{From: i, To: j})
				usedF[i] = true
				usedT[j] = true
			}
		}
		alpha := 1 + rng.Intn(25)
		var predicted int64
		for _, e := range links {
			predicted += tr.gValue(e, alpha)
		}
		before := tr.psi
		tr.apply(links, alpha)
		if got := tr.psi - before; got != predicted {
			t.Fatalf("step %d: benefit %d != ψ delta %d", k, predicted, got)
		}
	}
}

func TestOctopusBCloseToOctopus(t *testing.T) {
	g, load := randomInstance(t, 21, 14, 500)
	run := func(opt Options) *Result {
		s, err := New(g, load, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(Options{Window: 500, Delta: 10})
	bin := run(Options{Window: 500, Delta: 10, AlphaSearch: AlphaBinary})
	if float64(bin.Delivered) < 0.85*float64(full.Delivered) {
		t.Fatalf("Octopus-B delivered %d far below Octopus %d", bin.Delivered, full.Delivered)
	}
}

func TestOctopusGCloseToOctopus(t *testing.T) {
	g, load := randomInstance(t, 22, 14, 500)
	run := func(m Matcher) *Result {
		s, err := New(g, load, Options{Window: 500, Delta: 10, Matcher: m})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := run(MatcherExact)
	greedy := run(MatcherGreedy)
	if float64(greedy.Delivered) < 0.8*float64(exact.Delivered) {
		t.Fatalf("Octopus-G delivered %d far below Octopus %d", greedy.Delivered, exact.Delivered)
	}
}

func TestStepIncremental(t *testing.T) {
	g, load := randomInstance(t, 23, 8, 200)
	s, err := New(g, load, Options{Window: 200, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	stepped := &schedule.Schedule{Delta: 5}
	for {
		cfg, ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if cfg.Alpha <= 0 || len(cfg.Links) == 0 {
			t.Fatalf("degenerate configuration %v", cfg)
		}
		stepped.Configs = append(stepped.Configs, cfg)
		used += cfg.Alpha + 5
		if used > 200 {
			t.Fatalf("stepped past the window: %d slots used", used)
		}
	}
	if !s.Done() {
		t.Fatal("not done after Step returned false")
	}
	// The stepwise-built schedule must pass the independent validator
	// (matchings, window budget, capacity, hop causality).
	if _, err := verify.Schedule(g, load, stepped, verify.Options{Window: 200}); err != nil {
		t.Fatal(err)
	}
	// Further steps remain terminal.
	if _, ok, _ := s.Step(); ok {
		t.Fatal("Step after done returned a configuration")
	}
}

func TestOptionValidation(t *testing.T) {
	g, load := randomInstance(t, 1, 6, 50)
	cases := []Options{
		{},                       // no window
		{Window: -5},             // negative window
		{Window: 100, Delta: -1}, // negative delta
		{Window: 10, Delta: 10},  // window <= delta
		{Window: 100, Ports: -2}, // bad ports
		{Window: 100, Epsilon64: -1},
		{Window: 100, MultiRoute: true, Ports: 2},
		{Window: 100, MultiRoute: true, MultiHop: true},
		{Window: 100, MultiHop: true, Ports: 2}, // chaining plans one matching a configuration
	}
	for i, opt := range cases {
		if _, err := New(g, load, opt); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, opt)
		}
	}
	// Invalid load rejected.
	bad := &traffic.Load{Flows: []traffic.Flow{{ID: 1, Size: 1, Src: 0, Dst: 0}}}
	if _, err := New(g, bad, Options{Window: 100}); err == nil {
		t.Error("invalid load accepted")
	}
}

func TestMultiPortDoublesService(t *testing.T) {
	// Node 0 must send two equal flows to different destinations; with one
	// port only one can go at a time, with two ports both go at once.
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 50, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		{ID: 2, Size: 50, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 2}}},
	}}
	run := func(ports, window int) *Result {
		s, err := New(g, load, Options{Window: window, Delta: 5, Ports: ports})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Window 60: one port delivers at most 55 packets (one config of 50 +
	// nothing else fits); two ports deliver all 100.
	one := run(1, 60)
	two := run(2, 60)
	if two.Delivered != 100 {
		t.Fatalf("two ports delivered %d, want 100", two.Delivered)
	}
	if one.Delivered >= two.Delivered {
		t.Fatalf("one port (%d) not worse than two ports (%d)", one.Delivered, two.Delivered)
	}
	// The validator accepts the 2-port configurations and confirms the
	// plan's claims against its independent replay.
	_, err := verify.Schedule(g, load, two.Schedule, verify.Options{
		Window: 60,
		Ports:  2,
		Claim:  &verify.Claim{Delivered: two.Delivered, Hops: two.Hops, Psi: two.Psi},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowRespected(t *testing.T) {
	for _, w := range []int{25, 60, 150} {
		g, load := randomInstance(t, 31, 10, 300)
		s, err := New(g, load, Options{Window: w, Delta: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule.Cost() > w {
			t.Fatalf("window %d: cost %d", w, res.Schedule.Cost())
		}
	}
}

func TestEpsilonPrefersLaterHops(t *testing.T) {
	// Two candidate services: 10 packets at their first of 2 hops vs 10
	// packets at their last of 2 hops. With ε > 0 the later hop has higher
	// benefit weight and must be preferred by the queue ordering.
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 1)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
		{ID: 2, Size: 10, Src: 3, Dst: 2, Routes: []traffic.Route{{3, 1, 2}}},
	}}
	tr := newRemaining(g, load, 8, false, false, false)
	// Advance flow 2 to node 1.
	tr.apply([]graph.Edge{{From: 3, To: 1}}, 10)
	// Link (1,2) now holds flow 2's packets at hop x=1; its g-value for 10
	// packets must use the ε-boosted weight.
	want := int64(10) * traffic.HopWeight(2, 1, 8)
	if got := tr.gValue(graph.Edge{From: 1, To: 2}, 10); got != want {
		t.Fatalf("ε-weighted g = %d, want %d", got, want)
	}
	// ψ accounting stays base-weighted.
	if tr.psi != int64(10)*traffic.Weight(2) {
		t.Fatalf("ψ uses ε weights: %d", tr.psi)
	}
}

func TestRemainingSanityAfterFullRun(t *testing.T) {
	g, load := randomInstance(t, 37, 10, 300)
	s, err := New(g, load, Options{Window: 300, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.tr.sanity(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if s.tr.delivered+s.tr.pending != load.TotalPackets() {
		t.Fatal("packet conservation violated")
	}
}
