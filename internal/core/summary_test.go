package core

import (
	"math/rand"
	"sort"
	"testing"

	"octopus/internal/graph"
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
	for _, en := range ls.entries {
		if left == 0 {
			break
		}
		if en.sf.count == 0 {
			continue
		}
		t := minInt(left, en.sf.count)
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
		for _, en := range ls.entries {
			if en.sf.count == 0 {
				continue
			}
			if lastBW != -1 && en.bw != lastBW && c > 0 {
				seen[minInt(c, maxAlpha)] = true
			}
			c += en.sf.count
			lastBW = en.bw
		}
		if c > 0 {
			seen[minInt(c, maxAlpha)] = true
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

// lookup finds the subflow with the given key by walking the position
// chains.
func (tr *remaining) lookup(key sfKey) *subflow {
	var found *subflow
	tr.eachSubflow(func(sf *subflow) {
		if sf.key == key {
			found = sf
		}
	})
	return found
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

// TestSummaryEquivalenceRandomServes bypasses the scheduler and applies
// adversarial random service patterns — arbitrary links, arbitrary α,
// backtrack and normal passes in random order — so the dirty-set
// maintenance is tested beyond the matchings the greedy loop would pick.
func TestSummaryEquivalenceRandomServes(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		g, load := randomSmallLoad(seed)
		if len(load.Flows) == 0 {
			continue
		}
		multi := seed%2 == 0
		tr := newRemaining(g, load, int(seed%8), multi, multi, false)
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
		}
	}
}
