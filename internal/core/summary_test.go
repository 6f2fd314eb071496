package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// This file pins the per-link weight classes (linkState.classes, kept exact
// by count deltas) to the direct per-call queue walks they replaced. The
// naive functions below are the pre-summary implementations, retained as
// executable references: on any load, at any point of a run, the classes
// must give bit-identical values.

// naiveGValue is the original gValue for every α at once: walk the queue in
// priority order, taking its packets one at a time; g[α] is the benefit of
// the first α, up to the queue's total.
func naiveGValue(tr *remaining, ls *linkState) []int64 {
	g := []int64{0}
	for _, ei := range ls.entries {
		en := tr.entries[ei]
		for range tr.subflows[en.sf].count {
			g = append(g, g[len(g)-1]+en.bw)
		}
	}
	return g
}

// naiveLinkAlphas is the original Procedure 1 on one link: the prefix sums
// of queued counts at each benefit-weight class boundary, unclamped.
func naiveLinkAlphas(tr *remaining, ls *linkState) []int {
	var as []int
	c := 0
	var lastBW int64 = -1
	for _, ei := range ls.entries {
		en, count := tr.entries[ei], int(tr.subflows[tr.entries[ei].sf].count)
		if count == 0 {
			continue
		}
		if lastBW != -1 && en.bw != lastBW && c > 0 {
			as = append(as, c)
		}
		c += count
		lastBW = en.bw
	}
	if c > 0 {
		as = append(as, c)
	}
	return as
}

// naiveCandidateAlphas is the original Procedure 1: every link's
// boundaries, clamped, deduplicated, sorted.
func naiveCandidateAlphas(tr *remaining, maxAlpha int) []int {
	seen := make(map[int]bool)
	for _, ls := range tr.activeStates() {
		for _, a := range naiveLinkAlphas(tr, ls) {
			seen[min(a, maxAlpha)] = true
		}
	}
	out := make([]int, 0, len(seen))
	for a := range seen {
		if a > 0 {
			out = append(out, a)
		}
	}
	sort.Ints(out)
	return out
}

// gValue is g(e, α) by the queue walk; a link that never held an entry is
// worth 0.
func (tr *remaining) gValue(e graph.Edge, alpha int) int64 {
	ls := tr.state(e)
	if ls == nil || alpha <= 0 {
		return 0
	}
	walk := naiveGValue(tr, ls)
	return walk[min(alpha, len(walk)-1)]
}

// lookup finds the subflow with the given key.
func (tr *remaining) lookup(key sfKey) (subflow, bool) {
	for _, sf := range tr.subflows {
		if tr.key(sf) == key {
			return sf, true
		}
	}
	return subflow{}, false
}

// naiveClasses groups a link's queue, in priority order, into its runs of
// equal weight: the cells the link's classes must hold.
func naiveClasses(tr *remaining, ls *linkState) []weightClass {
	var cs []weightClass
	for _, ei := range ls.entries {
		en := tr.entries[ei]
		if len(cs) == 0 || cs[len(cs)-1].bw != en.bw {
			c := weightClass{bw: en.bw}
			if len(cs) > 0 {
				c.prefC, c.prefB = cs[len(cs)-1].prefC, cs[len(cs)-1].prefB
			}
			cs = append(cs, c)
		}
		n, c := int(tr.subflows[en.sf].count), &cs[len(cs)-1]
		c.count += n
		c.prefC += n
		c.prefB += int64(n) * en.bw
	}
	return cs
}

// classAlphas reads a link's Procedure-1 boundaries off its classes, the
// way candidateAlphas does: the prefix counts of the non-empty classes.
func classAlphas(ls *linkState) []int {
	var as []int
	for _, c := range ls.classes {
		if c.count > 0 {
			as = append(as, c.prefC)
		}
	}
	return as
}

// classMismatch compares one link's weight classes with the per-entry
// queue walks: the cells themselves, g(l, α) by fillLink for every α from 0
// to one past the queue's total, and the link's α boundaries.
func classMismatch(tr *remaining, ls *linkState) error {
	want := naiveClasses(tr, ls)
	if !slices.Equal(ls.classes, want) {
		return fmt.Errorf("link %v: classes %+v, the queue walk gives %+v", ls.edge, ls.classes, want)
	}
	total := 0
	if n := len(want); n > 0 {
		total = want[n-1].prefC
	}
	block, col := make([]int, total+2), make([]int64, total+2)
	for a := range block {
		block[a] = a
	}
	fillLink(col, 1, ls.classes, block)
	walk := naiveGValue(tr, ls)
	for _, a := range block {
		if w := walk[min(a, len(walk)-1)]; col[a] != w {
			return fmt.Errorf("link %v: g(α=%d) is %d by fillLink, the queue walk %d", ls.edge, a, col[a], w)
		}
	}
	if got, want := classAlphas(ls), naiveLinkAlphas(tr, ls); !slices.Equal(got, want) {
		return fmt.Errorf("link %v: α boundaries %v, the queue walk gives %v", ls.edge, got, want)
	}
	return nil
}

// checkSummariesAgainstNaive compares every active link's classes, and the
// merged candidate α's, against the naive references.
func checkSummariesAgainstNaive(t *testing.T, tr *remaining, window int) bool {
	t.Helper()
	if got, want := tr.candidateAlphas(window), naiveCandidateAlphas(tr, window); !slices.Equal(got, want) {
		t.Errorf("candidateAlphas: got %v want %v", got, want)
		return false
	}
	for _, ls := range tr.activeStates() {
		if err := classMismatch(tr, ls); err != nil {
			t.Error(err)
			return false
		}
	}
	return true
}

// TestSummaryEquivalenceProperty drives full scheduler runs — plain
// Octopus, Octopus-e, Octopus+ with and without backtracking — and checks
// after every applied configuration that the weight classes agree with the
// naive queue walks. The interleaving matters: it exercises the count deltas
// of serveLink (drains, arrivals on downstream links, backtrack
// annulments), not just freshly built queues.
func TestSummaryEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g, load := randomSmallLoad(seed)
		if len(load.Flows) == 0 {
			continue
		}
		opt := Options{Window: 120 + int(seed%5)*37, Delta: 5}
		switch seed % 4 {
		case 1:
			opt.Epsilon64 = 1 + int(seed%16)
		case 2:
			opt.MultiRoute = true
		case 3:
			opt.MultiRoute = true
			opt.DisableBacktrack = true
		}
		s, err := New(g, load, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !checkSummariesAgainstNaive(t, s.tr, opt.Window) {
			t.Fatalf("seed %d: mismatch on the initial queues (opt %+v)", seed, opt)
		}
		for {
			_, ok, err := s.Step()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !ok {
				break
			}
			if !checkSummariesAgainstNaive(t, s.tr, opt.Window) {
				t.Fatalf("seed %d: mismatch after %d configs (opt %+v)", seed, s.tr.configIdx, opt)
			}
		}
	}
}

// multiRouteLoad is an Octopus+ load on Complete(n): every flow has two to
// four distinct routes of two to four hops, several sharing a first hop, and
// a direct source->destination link to backtrack over.
func multiRouteLoad(seed int64) (*graph.Digraph, *traffic.Load) {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(4)
	g := graph.Complete(n)
	load := &traffic.Load{}
	for len(load.Flows) < 3+rng.Intn(6) {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		var routes []traffic.Route
		for try := 0; try < 12 && len(routes) < 2+rng.Intn(3); try++ {
			route, ok := traffic.RandomRoute(g, src, dst, 2+rng.Intn(3), rng)
			if ok && !slices.ContainsFunc(routes, route.Equal) {
				routes = append(routes, route)
			}
		}
		if len(routes) < 2 {
			continue
		}
		// Descending IDs now and then: queue order is by ID, not load order.
		id := 100 + len(load.Flows)
		if seed%3 == 0 {
			id = 100 - len(load.Flows)
		}
		load.Flows = append(load.Flows, traffic.Flow{ID: id, Size: 5 + rng.Intn(40), Src: src, Dst: dst, Routes: routes})
	}
	return g, load
}

// indexFormCover counts what a run of checkIndexForm calls has seen, and
// classInserts the arrivals that brought a link holding packets already a
// weight it had no class for.
type indexFormCover struct{ altChains, twoHomes, uncommitted, classInserts int }

// checkIndexForm verifies the index structure of T^r: entries and homes are
// index-aligned and every entry sits exactly once in the queue its home
// names, in (bw desc, flow ID asc, pos asc) order; a subflow's entries are
// its homes window; every later subflow hangs once off its predecessor's
// next/alt chain, one hop further along the same flow and route, where
// successor finds it; and nothing has outgrown the bounds New checked.
func checkIndexForm(t *testing.T, tr *remaining, load *traffic.Load, cover *indexFormCover) {
	t.Helper()
	if len(tr.entries) != len(tr.homes) {
		t.Fatalf("%d entries, %d homes", len(tr.entries), len(tr.homes))
	}
	queued := make([]int, len(tr.entries))
	for _, ls := range tr.activeStates() {
		id := tr.g.LinkID(ls.edge.From, ls.edge.To)
		for i, ei := range ls.entries {
			queued[ei]++
			if int(tr.homes[ei]) != id {
				t.Fatalf("entry %d queues on link %d, its home says %d", ei, id, tr.homes[ei])
			}
			if i > 0 && tr.cmpEntries(ls.entries[i-1], ei) > 0 {
				t.Fatalf("link %v: entries %d and %d out of priority order", ls.edge, ls.entries[i-1], ei)
			}
		}
	}
	for ei, c := range queued {
		if c != 1 {
			t.Fatalf("entry %d is queued %d times", ei, c)
		}
	}
	preds := make([]int, len(tr.subflows))
	owned := 0
	for i, sf := range tr.subflows {
		si := int32(i)
		for k := sf.homes; k < sf.homes+sf.nHomes; k++ {
			if tr.entries[k].sf != si {
				t.Fatalf("subflow %d: entry %d of its window belongs to subflow %d", si, k, tr.entries[k].sf)
			}
		}
		owned += int(sf.nHomes)
		if sf.nHomes == 2 && sf.routeID >= 0 {
			cover.twoHomes++
		}
		if sf.routeID < 0 && sf.nHomes > 0 {
			cover.uncommitted++
		}
		for d := sf.next; d != 0; d = tr.subflows[d].alt {
			n := tr.subflows[d]
			preds[d]++
			if n.flow != sf.flow || n.pos != sf.pos+1 || (sf.routeID >= 0 && n.routeID != sf.routeID) || n.routeID < 0 {
				t.Fatalf("subflow %d %+v chains to %d %+v", si, sf, d, n)
			}
			if got := tr.successor(si, n.routeID); got != d {
				t.Fatalf("successor(%d, route %d) = %d, the chain holds %d", si, n.routeID, got, d)
			}
			if n.alt != 0 {
				cover.altChains++
			}
		}
	}
	if owned != len(tr.entries) {
		t.Fatalf("homes windows cover %d entries of %d", owned, len(tr.entries))
	}
	for i, c := range preds {
		if want := min(1, max(0, i+1-len(load.Flows))); c != want {
			t.Fatalf("subflow %d has %d predecessors, want %d", i, c, want)
		}
	}
	dims, err := measure(load, tr.multiRoute, tr.backtrack)
	if err != nil || int64(len(tr.subflows)) > dims.subflows || int64(len(tr.entries)) > dims.entries {
		t.Fatalf("%d subflows and %d entries, New checked bounds of %+v (err %v)", len(tr.subflows), len(tr.entries), dims, err)
	}
}

// replayCounts is T^r as a map: the packet count of every subflow key after
// the recorded service trace, by the rules of serveLink.
func replayCounts(load *traffic.Load, multiRoute bool, trace []servedRecord) map[sfKey]int {
	counts := make(map[sfKey]int)
	flows := make(map[int]*traffic.Flow)
	for i := range load.Flows {
		f := &load.Flows[i]
		flows[f.ID] = f
		if multiRoute && len(f.Routes) > 1 {
			counts[sfKey{f.ID, -1, 0}] = f.Size
		} else {
			counts[sfKey{f.ID, 0, 0}] = f.Size
		}
	}
	for _, rec := range trace {
		counts[rec.Key] -= rec.Count
		if next := (sfKey{rec.Key.flowID, rec.RouteID, rec.Key.pos + 1}); !rec.Backtrack && next.pos < flows[next.flowID].Routes[next.routeID].Hops() {
			counts[next] += rec.Count
		}
	}
	return counts
}

// TestSummaryEquivalenceRandomServes bypasses the scheduler and applies
// adversarial random service patterns — arbitrary links, arbitrary α,
// backtrack and normal passes in random order — so the count deltas are
// tested beyond the matchings the greedy loop would pick. Half the loads
// are Octopus+ ones with backtracking, so that alt chains, subflows with two
// homes and uncommitted entries all occur, and arrivals insert classes into
// links that hold packets of other weights; besides the naive queue walks,
// the index structure is checked after every round and the final packet
// counts against a map-keyed replay of the trace.
func TestSummaryEquivalenceRandomServes(t *testing.T) {
	var cover indexFormCover
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		g, load := randomSmallLoad(seed)
		multi := seed%2 == 0
		if multi && seed%4 == 0 {
			g, load = multiRouteLoad(seed)
		}
		if len(load.Flows) == 0 {
			continue
		}
		tr := newRemaining(g, load, int(seed%8), multi, multi, true)
		for round := 0; round < 25; round++ {
			active := tr.activeStates()
			if len(active) == 0 {
				break
			}
			links := make([]graph.Edge, 0, 3)
			for i := 0; i < 1+rng.Intn(3); i++ {
				links = append(links, active[rng.Intn(len(active))].edge)
			}
			classes := make(map[*linkState]int)
			for _, ls := range tr.activeStates() {
				if n := len(ls.classes); n > 0 && ls.classes[n-1].prefC > 0 {
					classes[ls] = n
				}
			}
			tr.apply(links, 1+rng.Intn(40))
			for ls, n := range classes {
				if len(ls.classes) > n {
					cover.classInserts++
				}
			}
			if !checkSummariesAgainstNaive(t, tr, 200) {
				t.Fatalf("seed %d: mismatch after round %d", seed, round)
			}
			if err := tr.sanity(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkIndexForm(t, tr, load, &cover)
		}
		want := replayCounts(load, multi, tr.trace)
		for _, sf := range tr.subflows {
			key := tr.key(sf)
			if int(sf.count) != want[key] {
				t.Fatalf("seed %d: subflow %+v holds %d packets, the trace replay %d", seed, key, sf.count, want[key])
			}
			delete(want, key)
		}
		for key, c := range want {
			if c != 0 {
				t.Fatalf("seed %d: the trace replay leaves %d packets at %+v, T^r has no such subflow", seed, c, key)
			}
		}
	}
	if cover.altChains == 0 || cover.twoHomes == 0 || cover.uncommitted == 0 || cover.classInserts == 0 {
		t.Fatalf("the loads never exercised %+v", cover)
	}
}

// FuzzClassSummary drives the weight classes of a small T^r through random
// sequences of serves (apply: drains, downstream arrivals, commits of
// uncommitted packets, backtracks), arrivals on existing subflows, and
// entries of any hop weight on any link — a new class, more often than not —
// at ε ∈ {0, 4, 64}, single-route or Octopus+ with backtracking. After every
// step, every active link's classes, g(l, α) for every α up to its total
// and its α boundaries must equal the per-entry queue walks, and the merged
// candidate α's Procedure 1's.
func FuzzClassSummary(f *testing.F) {
	for mode := range uint8(12) {
		f.Add(int64(mode)+1, mode, []byte{0, 3, 40, 1, 2, 5, 2, 7, 9, 4, 1, 200, 2, 0, 11, 0, 5, 2, 5, 9, 33})
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, ops []byte) {
		eps := []int{0, 4, 64}[mode%3]
		multi := mode/3%2 == 1
		g, load := randomSmallLoad(seed)
		if multi && mode/6%2 == 1 {
			g, load = multiRouteLoad(seed)
		}
		if len(load.Flows) == 0 {
			return
		}
		tr := newRemaining(g, load, eps, multi, multi, false)
		edges, window := g.Edges(), 8+int(uint64(seed)%200)
		check := func(step int) {
			for _, ls := range tr.activeStates() {
				if err := classMismatch(tr, ls); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if got, want := tr.candidateAlphas(window), naiveCandidateAlphas(tr, window); !slices.Equal(got, want) {
				t.Fatalf("step %d: candidateAlphas(%d) = %v, Procedure 1 gives %v", step, window, got, want)
			}
		}
		check(0)
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			op, x, y := ops[i], int(ops[i+1]), int(ops[i+2])
			switch op % 3 {
			case 0: // serve up to y+1 packets on one or two active links
				active := tr.activeStates()
				links := []graph.Edge{active[x%len(active)].edge}
				if e := active[(x+y)%len(active)].edge; op&4 != 0 && e != links[0] {
					links = append(links, e)
				}
				tr.apply(links, 1+y)
			case 1: // packets arrive at an existing subflow
				d := int32(1 + y%16)
				tr.addCount(int32(x%len(tr.subflows)), d)
				tr.pending += int(d)
			case 2: // a last-hop subflow of a flow queues on any link at any hop weight
				fi := int32(x % len(load.Flows))
				hops, l := load.Flows[fi].Routes[0].Hops(), 1+y%traffic.MaxRouteLen
				si, count := int32(len(tr.subflows)), int32(1+y%7)
				tr.subflows = append(tr.subflows, subflow{
					flow: fi, pos: int16(hops - 1), hops: int16(hops), count: count, homes: int32(len(tr.homes)),
				})
				tr.addEntry(edges[(7*x+y)%len(edges)], entry{sf: si, bw: traffic.HopWeight(l, (x+y)%l, eps), pw: traffic.Weight(l)})
				tr.pending += int(count)
			}
			check(i/3 + 1)
		}
	})
}

// TestPrologueParallelEqualsSerial: the head of a greedy iteration — the
// changed-link count, the weight classes apply left, the candidate α's —
// and the chosen configuration are what one worker leaves them (which other
// tests pin to the queues), on an instance that fills its g-table in more
// than one link range and changes hundreds of links an iteration.
func TestPrologueParallelEqualsSerial(t *testing.T) {
	g, load := podInstance(t, 16, 16, 20_000)
	var ss []*Scheduler
	for _, par := range []int{1, 2, 8} {
		s, err := New(g, load, Options{Window: 512, Delta: 4, Matcher: MatcherGreedy, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	if n := len(ss[0].tr.activeStates()); n <= fillLinks {
		t.Fatalf("%d active links fit one fillG range", n)
	}
	var cover indexFormCover
	serial, busy := ss[0], 0
	for iter := 0; ; iter++ {
		maxAlpha := serial.opt.Window - serial.used - serial.opt.Delta
		var alphas []int
		for _, s := range ss {
			for i, ls := range s.tr.activeStates() {
				if want := serial.tr.stateList[i]; ls.changed != want.changed || ls.edge != want.edge || !slices.Equal(ls.classes, want.classes) {
					t.Fatalf("iteration %d, Parallelism %d, link %v (changed %v): classes\n %+v\nserially %v (changed %v)\n %+v",
						iter, s.opt.Parallelism, ls.edge, ls.changed, ls.classes, want.edge, want.changed, want.classes)
				}
			}
			checkIndexForm(t, s.tr, load, &cover)
			if got := s.tr.candidateAlphas(maxAlpha); s == serial {
				alphas = slices.Clone(got)
			} else if !slices.Equal(got, alphas) {
				t.Fatalf("iteration %d, Parallelism %d: candidate α's %v, serially %v", iter, s.opt.Parallelism, got, alphas)
			}
		}
		want, more, err := serial.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss[1:] {
			cfg, ok, err := s.Step()
			if err != nil || ok != more || cfg.Alpha != want.Alpha || !slices.Equal(cfg.Links, want.Links) {
				t.Fatalf("iteration %d, Parallelism %d: configuration α=%d of %d links (ok %v, err %v), serially α=%d of %d",
					iter, s.opt.Parallelism, cfg.Alpha, len(cfg.Links), ok, err, want.Alpha, len(want.Links))
			}
			if s.lastChanged != serial.lastChanged {
				t.Fatalf("iteration %d, Parallelism %d: %d links changed, serially %d", iter, s.opt.Parallelism, s.lastChanged, serial.lastChanged)
			}
		}
		if iter > 0 && serial.lastChanged > 256 {
			busy++
		}
		if !more || iter == 8 { // every iteration is alike; the race detector makes each dear
			break
		}
	}
	if busy < 3 {
		t.Fatalf("only %d iterations after the first changed more than 256 links", busy)
	}
}

// sanity verifies the counting invariants of T^r: no negative count, no
// subflow at or past its destination, pending equal to what is queued.
func (tr *remaining) sanity() error {
	var err error
	total := 0
	for _, sf := range tr.subflows {
		if sf.count < 0 {
			err = fmt.Errorf("core: negative count for %+v", tr.key(sf))
		}
		if sf.routeID >= 0 && (sf.pos >= sf.hops || int(sf.hops) != tr.flows[sf.flow].Routes[sf.routeID].Hops()) {
			err = fmt.Errorf("core: subflow %+v at/past destination", tr.key(sf))
		}
		total += int(sf.count)
	}
	if err == nil && total != tr.pending {
		err = fmt.Errorf("core: pending %d != sum of subflows %d", tr.pending, total)
	}
	return err
}
