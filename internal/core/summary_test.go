package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// This file pins the incremental link summaries (linkSummary + dirty-set
// maintenance) to the direct per-call queue walks they replaced. The naive
// functions below are the pre-summary implementations, retained verbatim
// as executable references: on any load, at any point of a run, the cached
// path must return bit-identical values.

// naiveGValue is the original gValue: walk the queue in priority order and
// take the top alpha packets.
func naiveGValue(tr *remaining, e graph.Edge, alpha int) int64 {
	ls := tr.state(e)
	if ls == nil || alpha <= 0 {
		return 0
	}
	var total int64
	left := alpha
	for _, ei := range ls.entries {
		if left == 0 {
			break
		}
		en, count := tr.entries[ei], int(tr.subflows[tr.entries[ei].sf].count)
		if count == 0 {
			continue
		}
		t := min(left, count)
		total += int64(t) * en.bw
		left -= t
	}
	return total
}

// naiveCandidateAlphas is the original Procedure 1: per link, prefix sums
// of queued counts at each benefit-weight class boundary, clamped,
// deduplicated, sorted.
func naiveCandidateAlphas(tr *remaining, maxAlpha int) []int {
	seen := make(map[int]bool)
	for _, ls := range tr.activeStates() {
		c := 0
		var lastBW int64 = -1
		for _, ei := range ls.entries {
			en, count := tr.entries[ei], int(tr.subflows[tr.entries[ei].sf].count)
			if count == 0 {
				continue
			}
			if lastBW != -1 && en.bw != lastBW && c > 0 {
				seen[min(c, maxAlpha)] = true
			}
			c += count
			lastBW = en.bw
		}
		if c > 0 {
			seen[min(c, maxAlpha)] = true
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

// gValue is gValueState by edge; a link that never held an entry is worth 0.
func (tr *remaining) gValue(e graph.Edge, alpha int) int64 {
	ls := tr.state(e)
	if ls == nil {
		return 0
	}
	return gValueState(ls, alpha)
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

// checkSummariesAgainstNaive compares the cached paths against the naive
// references on every active link for a spread of α values.
func checkSummariesAgainstNaive(t *testing.T, tr *remaining, window int) bool {
	t.Helper()
	got := tr.candidateAlphas(window)
	want := naiveCandidateAlphas(tr, window)
	if len(got) != len(want) {
		t.Errorf("candidateAlphas: got %v want %v", got, want)
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("candidateAlphas[%d]: got %v want %v", i, got, want)
			return false
		}
	}
	alphas := append([]int{1, 2, 3, window / 2, window, window + 7}, want...)
	for _, e := range tr.activeEdges() {
		for _, a := range alphas {
			if g, w := tr.gValue(e, a), naiveGValue(tr, e, a); g != w {
				t.Errorf("gValue(%v, %d): got %d want %d", e, a, g, w)
				return false
			}
		}
	}
	return true
}

// TestSummaryEquivalenceProperty drives full scheduler runs — plain
// Octopus, Octopus-e, Octopus+ with and without backtracking — and checks
// after every applied configuration that the incremental summaries agree
// with the naive queue walks. The interleaving matters: it exercises the
// dirty-set invalidation from serveLink (count drains, arrivals on
// downstream links, backtrack annulments), not just freshly built queues.
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

// indexFormCover counts what a run of checkIndexForm calls has seen.
type indexFormCover struct{ altChains, twoHomes, uncommitted int }

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
// backtrack and normal passes in random order — so the dirty-set
// maintenance is tested beyond the matchings the greedy loop would pick.
// Half the loads are Octopus+ ones with backtracking, so that alt chains,
// subflows with two homes and uncommitted entries all occur; besides the
// naive queue walks, the index structure is checked after every round and
// the final packet counts against a map-keyed replay of the trace.
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
			edges := tr.activeEdges()
			if len(edges) == 0 {
				break
			}
			links := make([]graph.Edge, 0, 3)
			for i := 0; i < 1+rng.Intn(3); i++ {
				links = append(links, edges[rng.Intn(len(edges))])
			}
			tr.apply(links, 1+rng.Intn(40))
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
	if cover.altChains == 0 || cover.twoHomes == 0 || cover.uncommitted == 0 {
		t.Fatalf("the loads never exercised %+v", cover)
	}
}

// TestPrologueParallelEqualsSerial: the head of a greedy iteration — dirty
// summaries rebuilt rebuildLinks at a time across the workers, then the
// candidate α's — leaves every summary, the candidate set and the chosen
// configuration what one worker leaves them (which other tests pin to the
// queues), on an instance that dirties more links an iteration than one work
// item holds.
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
	var cover indexFormCover
	serial, split := ss[0], 0
	for iter := 0; ; iter++ {
		maxAlpha := serial.opt.Window - serial.used - serial.opt.Delta
		var alphas []int
		for _, s := range ss {
			s.rebuildDirty()
			if s.lastRebuilds != serial.lastRebuilds {
				t.Fatalf("iteration %d, Parallelism %d: %d summaries rebuilt, serially %d", iter, s.opt.Parallelism, s.lastRebuilds, serial.lastRebuilds)
			}
			for i, ls := range s.tr.activeStates() {
				if want := serial.tr.stateList[i]; ls.dirty || ls.edge != want.edge || !reflect.DeepEqual(ls.sum, want.sum) {
					t.Fatalf("iteration %d, Parallelism %d, link %v (dirty %v): summary\n %+v\nserially %v\n %+v",
						iter, s.opt.Parallelism, ls.edge, ls.dirty, ls.sum, want.edge, want.sum)
				}
			}
			checkIndexForm(t, s.tr, load, &cover)
			if got := s.tr.candidateAlphas(maxAlpha); s == serial {
				alphas = slices.Clone(got)
			} else if !slices.Equal(got, alphas) {
				t.Fatalf("iteration %d, Parallelism %d: candidate α's %v, serially %v", iter, s.opt.Parallelism, got, alphas)
			}
		}
		if iter > 0 && serial.lastRebuilds > rebuildLinks {
			split++
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
		}
		if !more || iter == 8 { // every iteration is alike; the race detector makes each dear
			break
		}
	}
	if split < 3 {
		t.Fatalf("only %d iterations after the first dirtied more than %d links: the rebuild was never split", split, rebuildLinks)
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
