package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/matching"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// This file pins the flat remaining-traffic layout: what core.New may
// allocate, and that the blocked g(link, α) table is gValueState laid out
// differently.

// TestNewAllocatesPerLinkNotPerFlow: subflows, entries, queue slots and
// homes of the initial load come from slabs, so building T^r costs a few
// allocations per active link at most. (One subflow, one entry, one homes
// slice and two map inserts per flow were ≈3.3 allocations per flow.)
func TestNewAllocatesPerLinkNotPerFlow(t *testing.T) {
	const flows = 10_000
	g, load := podInstance(t, 8, 16, flows)
	opt := Options{Window: 512, Delta: 4, Matcher: MatcherGreedy}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(g, load, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= flows/4 {
		t.Fatalf("core.New allocates %v times for %d flows over %d links, want < %d", allocs, flows, g.M(), flows/4)
	}
}

// TestNewBytesPerFlow: T^r in index form costs a single-route flow a 36-byte
// subflow, a 24-byte entry, a queue slot and a home, with an eighth of
// head-room on the first three; the rest is per link: its state and one
// 32-byte cell per weight class on it (the pointer form read 210 bytes a
// flow here, and three summary cells a flow 110).
func TestNewBytesPerFlow(t *testing.T) {
	if s, e := reflect.TypeOf(subflow{}).Size(), reflect.TypeOf(entry{}).Size(); s > 40 || e > 24 {
		t.Fatalf("subflow is %d bytes and entry %d, want at most 40 and 24", s, e)
	}
	const flows = 100_000
	g, load := podInstance(t, 16, 16, flows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := newRemaining(g, load, 0, false, false, false)
	runtime.ReadMemStats(&after)
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / flows
	if perFlow > 92 {
		t.Fatalf("newRemaining allocates %.1f bytes a flow (%d flows, %d active links), want at most 92", perFlow, flows, len(tr.stateList))
	}
	t.Logf("%.1f bytes a flow", perFlow)
}

// TestRemainingSlabsHoldNoPointers: every array of T^r that grows with the
// flows or the entries has a pointer-free element type, so the runtime
// allocates it noscan and the collector never walks it.
func TestRemainingSlabsHoldNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, slab := range []struct {
		owner  any
		fields []string
	}{
		{remaining{}, []string{"subflows", "entries", "homes", "touched"}},
		{linkState{}, []string{"entries", "classes"}},
	} {
		ty := reflect.TypeOf(slab.owner)
		for _, name := range slab.fields {
			f, ok := ty.FieldByName(name)
			if !ok || f.Type.Kind() != reflect.Slice {
				t.Fatalf("%s.%s is not a slice field", ty.Name(), name)
			}
			if !pointerFree(f.Type.Elem()) {
				t.Errorf("%s.%s: element type %s holds a pointer", ty.Name(), name, f.Type.Elem())
			}
		}
	}
}

// TestIndexWidthsFailClosed: T^r indexes subflows and entries by int32 and
// counts packets in 32 bits. New refuses what would not fit — a flow size,
// or a worst-case subflow or entry count, past MaxInt32 — with an error, and
// plans a load just inside the limit like any other.
func TestIndexWidthsFailClosed(t *testing.T) {
	g := graph.Complete(3)
	opt := Options{Window: 100, Delta: 1, Matcher: MatcherGreedy}
	load := func(size int) *traffic.Load {
		return &traffic.Load{Flows: []traffic.Flow{
			{ID: 1, Size: size, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
			{ID: 2, Size: 7, Src: 1, Dst: 2, Routes: []traffic.Route{{1, 2}}},
		}}
	}
	if _, err := New(g, load(math.MaxInt32+1), opt); err == nil || !strings.Contains(err.Error(), "size") {
		t.Fatalf("a flow of 2^31 packets: err = %v, want a size error", err)
	}
	s, err := New(g, load(math.MaxInt32), opt)
	if err != nil {
		t.Fatalf("a flow of 2^31-1 packets: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// What the 64-bit counts planned for this load.
	if res.Delivered != 87 || res.Pending != math.MaxInt32+7-87 || res.Hops != 174 || res.Psi != 160554240 || len(res.Schedule.Configs) != 13 {
		t.Fatalf("in-range plan: delivered %d, pending %d, hops %d, ψ %d, %d configurations",
			res.Delivered, res.Pending, res.Hops, res.Psi, len(res.Schedule.Configs))
	}
	// The bounds measure counts, driven to the limit and one past it (a load
	// that large does not fit a test).
	for _, c := range []struct {
		dims loadDims
		ok   bool
	}{
		{loadDims{subflows: math.MaxInt32, entries: math.MaxInt32}, true},
		{loadDims{subflows: math.MaxInt32 + 1, entries: 1}, false},
		{loadDims{subflows: 1, entries: math.MaxInt32 + 1}, false},
	} {
		if err := c.dims.checkWidths(); (err == nil) != c.ok {
			t.Errorf("%+v: checkWidths = %v, want ok=%v", c.dims, err, c.ok)
		}
	}
}

// podInstance is a single-route load of the given size, ascending IDs, on
// a pod fabric: the shape of the benchmark's pods-flows workload.
func podInstance(tb testing.TB, pods, podSize, flows int) (*graph.Digraph, *traffic.Load) {
	tb.Helper()
	pp := traffic.DefaultPodParams(pods, podSize, 512)
	pp.LargePerPod = flows / pods / 4
	pp.SmallPerPod = flows/pods - pp.LargePerPod
	pp.LargeTotal, pp.SmallTotal = max(pp.LargeTotal, pp.LargePerPod), max(pp.SmallTotal, pp.SmallPerPod)
	store, err := traffic.PodSynthetic(pp, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	load := store.Materialize(nil)
	if len(load.Flows) != flows {
		tb.Fatalf("generated %d flows, want %d", len(load.Flows), flows)
	}
	return pp.Fabric(), load
}

// randomQueues returns a fabric with several flows of mixed route lengths
// (hence mixed benefit weights) queued on every link.
func randomQueues(n int, seed int64) (*graph.Digraph, *traffic.Load) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Complete(n)
	load := &traffic.Load{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for k := rng.Intn(4); k >= 0; k-- {
				route := traffic.Route{i, j}
				for m := rng.Intn(3); m > 0; m-- {
					if next := rng.Intn(n); !slices.Contains(route, next) {
						route = append(route, next)
					}
				}
				load.Flows = append(load.Flows, traffic.Flow{
					ID: len(load.Flows), Size: 1 + rng.Intn(1500), Src: i, Dst: route.Dst(), Routes: []traffic.Route{route},
				})
			}
		}
	}
	return g, load
}

// TestGTableMatchesGValueState feeds forAlphas more (link, α) pairs than one
// block of the table holds — several full blocks and a partial last one, α's
// from 1 to past every queue's total — on queues a few configurations into
// a run (drained entries, downstream arrivals), and checks every weighted
// edge list against one gValueState call per link.
func TestGTableMatchesGValueState(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		g, load := randomQueues(36, seed)
		s, err := New(g, load, Options{Window: 3000, Delta: 10, Matcher: MatcherGreedy, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := s.Step(); err != nil || !ok {
				t.Fatalf("seed %d: step %d: ok=%v err=%v", seed, i, ok, err)
			}
		}
		edges, states := s.tr.activeEdges(), s.tr.activeStates()
		top := 0
		for _, ls := range states {
			if cs := ls.classes; len(cs) > 0 {
				top = max(top, cs[len(cs)-1].prefC)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var as []int
		for a := 1; a <= top+50; a += 1 + rng.Intn(3) {
			as = append(as, a)
		}
		width := gTableEntries / len(states)
		if len(as) < 2*width || len(as)%width == 0 {
			t.Fatalf("seed %d: %d α's over %d links do not make full blocks plus a partial one (width %d)", seed, len(as), len(states), width)
		}
		seen := make([]bool, len(as))
		s.forAlphas(as, func(sc *evalScratch, j int, col []int64) {
			we := sc.weighted(s.tr.glinks, col)
			seen[j] = true
			var want []matching.Edge
			for li, ls := range states {
				if w := gValueState(ls, as[j]); w > 0 {
					want = append(want, matching.Edge{From: edges[li].From, To: edges[li].To, Weight: w})
				}
			}
			if !reflect.DeepEqual(we, want) {
				t.Errorf("seed %d: G' for α=%d (index %d) differs from gValueState", seed, as[j], j)
			}
		})
		for j, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: α index %d never evaluated", seed, j)
			}
		}
	}
}

// TestGreedyScheduleIndependentOfParallelism: the α's of a table block are
// evaluated concurrently; the chosen configurations must not depend on how
// many workers share them, nor on how many fill a block's link ranges. The
// instance needs more than one block and more than one range.
func TestGreedyScheduleIndependentOfParallelism(t *testing.T) {
	g, load := randomQueues(36, 7)
	plan := func(par int) []schedule.Configuration {
		s, err := New(g, load, Options{Window: 3000, Delta: 10, Matcher: MatcherGreedy, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var cfgs []schedule.Configuration
		for {
			cfg, ok, err := s.Step()
			if err != nil {
				t.Fatalf("par %d: %v", par, err)
			}
			if !ok {
				return cfgs
			}
			if len(cfgs) == 0 && s.lastCandidates*len(s.tr.activeStates()) <= gTableEntries {
				t.Fatalf("instance fits one table block (%d α's × %d links)", s.lastCandidates, len(s.tr.activeStates()))
			}
			if len(s.tr.activeStates()) <= fillLinks {
				t.Fatalf("%d links fit one fillG range", len(s.tr.activeStates()))
			}
			cfgs = append(cfgs, cfg)
		}
	}
	want := plan(1)
	for _, par := range []int{2, 8} {
		if got := plan(par); !reflect.DeepEqual(got, want) {
			t.Errorf("Parallelism %d plans a different schedule than Parallelism 1", par)
		}
	}
}

// TestPhase2PruningFiresOnSmallSelections: with chunks of 2, 4, 8, … the
// incumbent prunes inside an iteration that selects no more than 8 α's (one
// chunk of 8 never could). Every planned configuration must still be the
// one the definition gives — an ascending-α scan over every candidate,
// greedy matching then exact matching, first strictly best ratio wins — and
// the solve and prune counts must not depend on the worker count.
func TestPhase2PruningFiresOnSmallSelections(t *testing.T) {
	g, load := randomInstance(t, 3, 48, 5000)
	type counts struct{ solved, pruned int64 }
	plan := func(par int) (cfgs []schedule.Configuration, c counts) {
		s, err := New(g, load, Options{Window: 5000, Delta: 20, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		ref := &evalScratch{}
		for !s.done {
			maxAlpha := s.opt.Window - s.used - s.opt.Delta
			want := &best{delta: s.opt.Delta}
			if maxAlpha > 0 && s.tr.pending > 0 {
				for _, a := range s.tr.candidateAlphas(maxAlpha) {
					we := s.weightedEdges(ref, a)
					m, w := ref.arena.GreedyBipartite(g.N(), we)
					want.consider(appendLinks(nil, m), a, w)
					m, w = ref.arena.MaxWeightBipartite(g.N(), we)
					want.consider(appendLinks(nil, m), a, w)
				}
				sortLinks(want.links)
			}
			cfg, ok, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(s.selBuf) > phase2Chunk {
				t.Fatalf("iteration %d selected %d α's; the instance is meant to stay within one old chunk", s.iters, len(s.selBuf))
			}
			if cfg.Alpha != want.alpha || !reflect.DeepEqual(cfg.Links, want.links) {
				t.Fatalf("par %d, iteration %d: planned α=%d (%d links), the full scan gives α=%d (%d links)",
					par, s.iters, cfg.Alpha, len(cfg.Links), want.alpha, len(want.links))
			}
			cfgs = append(cfgs, cfg)
		}
		for _, sc := range s.scratch {
			c.solved += sc.arena.Stats.ExactCalls
		}
		c.pruned = s.prunedExact
		return cfgs, c
	}
	want, wc := plan(1)
	if wc.pruned == 0 {
		t.Fatalf("nothing pruned (%d solved): the chunk schedule is not doing its job", wc.solved)
	}
	got, gc := plan(4)
	if !reflect.DeepEqual(got, want) || gc != wc {
		t.Errorf("Parallelism 4: %d configs, counts %+v; Parallelism 1: %d configs, counts %+v", len(got), gc, len(want), wc)
	}
	t.Logf("%d iterations, %d exact solves, %d pruned", len(want), wc.solved, wc.pruned)
}

// TestCarriedOrderPlansTheDefinition: the greedy path solves every α's
// column in place, by deferred acceptance, and copies a candidate's links
// only when it beats its worker's incumbent. None of that may show: at
// Parallelism 1, 2 and 8, on an instance whose α's span several g-table
// blocks, every planned configuration is the one the definition gives — an
// ascending-α scan with a fresh greedy matching of G' per α, first strictly
// best ratio wins — and the greedy counters do not depend on the worker count.
func TestCarriedOrderPlansTheDefinition(t *testing.T) {
	g, load := randomQueues(36, 7)
	var want1 matching.Stats
	for _, par := range []int{1, 2, 8} {
		s, err := New(g, load, Options{Window: 3000, Delta: 10, Matcher: MatcherGreedy, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		ref := &evalScratch{}
		for i := 0; ; i++ {
			want := &best{delta: s.opt.Delta}
			as := s.tr.candidateAlphas(s.opt.Window - s.used - s.opt.Delta)
			if i == 0 && len(as)*len(s.tr.activeStates()) <= gTableEntries {
				t.Fatalf("%d α's × %d links fit one table block", len(as), len(s.tr.activeStates()))
			}
			for _, a := range as {
				m, w := ref.arena.GreedyBipartite(g.N(), s.weightedEdges(ref, a))
				want.consider(appendLinks(nil, m), a, w)
			}
			sortLinks(want.links)
			cfg, ok, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if cfg.Alpha != want.alpha || !reflect.DeepEqual(cfg.Links, want.links) {
				t.Fatalf("par %d, step %d: planned α=%d (%d links), the definition gives α=%d (%d links)",
					par, i, cfg.Alpha, len(cfg.Links), want.alpha, len(want.links))
			}
		}
		var st matching.Stats
		for _, sc := range s.scratch {
			sc.arena.Stats.AddTo(&st)
		}
		st.Grows, st.Reuses = 0, 0 // a pool of arenas grows once per worker
		if par == 1 {
			want1 = st
		} else if st != want1 {
			t.Errorf("par %d: greedy stats %+v, par 1: %+v", par, st, want1)
		}
	}
}

// churnInstance is one epoch's backlog at the shape of the benchmark's
// engine-churn workload — a 128-node fabric of out-degree 8, flows of its
// size mix, window 500 — except that every route is one hop, so that no
// queue grows while the plan runs: a queue that outgrows its slots, or a
// link's first entry of a new weight class, allocates by design and would
// drown the count below.
func churnInstance(tb testing.TB, flows int) (*graph.Digraph, *traffic.Load) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomPartial(128, 8, rng)
	load := &traffic.Load{}
	for len(load.Flows) < flows {
		src, dst := rng.Intn(128), rng.Intn(128)
		if !g.HasEdge(src, dst) {
			continue
		}
		size := 1 + rng.Intn(125)
		if rng.Intn(4) == 0 {
			size = 250 + rng.Intn(500)
		}
		load.Flows = append(load.Flows, traffic.Flow{ID: len(load.Flows), Size: size, Src: src, Dst: dst, Routes: []traffic.Route{{src, dst}}})
	}
	return g, load
}

// TestGreedyStepAllocationCeiling: a greedy-mode iteration at the
// engine-churn shape solves some seventy matchings and keeps one. It
// allocates for the configuration it returns, not per candidate α (716
// link-set copies an epoch, once).
func TestGreedyStepAllocationCeiling(t *testing.T) {
	g, load := churnInstance(t, 300)
	s, err := New(g, load, Options{Window: 500, Delta: 10, Matcher: MatcherGreedy, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 8
	worst, candidates := 0.0, 0
	for !s.done {
		// AllocsPerRun(1, f) runs f twice and counts the second run; the first
		// Step of all also warms the scratch.
		allocs := testing.AllocsPerRun(1, func() {
			if _, _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if !s.done {
			worst, candidates = max(worst, allocs), max(candidates, s.lastCandidates)
		}
	}
	if s.iters < 5 || candidates < 50 {
		t.Fatalf("%d iterations, at most %d candidate α's: the instance is not the engine-churn shape", s.iters, candidates)
	}
	if worst > ceiling {
		t.Fatalf("a greedy Step allocates %v times (up to %d candidate α's), want <= %d", worst, candidates, ceiling)
	}
	t.Logf("%d iterations, at most %v allocations per Step, up to %d candidate α's", s.iters, worst, candidates)
}

// TestActiveEdgesMergeEqualsSort: links become active a few at a time, in
// any order; sorting the newcomers and merging them into the sorted rest
// leaves the list a fresh sort of all of them, with stateList, edgeList and
// glinks index-aligned, after every step.
func TestActiveEdgesMergeEqualsSort(t *testing.T) {
	g := graph.Complete(24)
	load := &traffic.Load{Flows: []traffic.Flow{{ID: 1, Size: 1, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}}}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newRemaining(g, load, 0, false, false, false)
		rest := g.Edges()
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		want := []graph.Edge{{From: 0, To: 1}}
		for step := 0; len(rest) > 0; step++ {
			k := min(len(rest), rng.Intn(40)) // sometimes none: the list must not move
			for _, e := range rest[:k] {
				if e != want[0] {
					tr.addEntry(e, entry{bw: 1})
					want = append(want, e)
				}
			}
			rest = rest[k:]
			got := tr.activeEdges()
			sorted := slices.Clone(want)
			sortLinks(sorted)
			if !slices.Equal(got, sorted) {
				t.Fatalf("seed %d step %d: %d links merged to\n %v\na fresh sort gives\n %v", seed, step, k, got, sorted)
			}
			for i, ls := range tr.activeStates() {
				if ls.edge != got[i] || tr.glinks[i] != (matching.Edge{From: got[i].From, To: got[i].To}) || tr.state(got[i]) != ls {
					t.Fatalf("seed %d step %d: position %d holds %v, state %v, glink %v", seed, step, i, got[i], ls.edge, tr.glinks[i])
				}
			}
		}
	}
}
