package matching

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file pins GreedyColumn, the greedy entry that carries the sorted link
// order from one weight column to the next, to a fresh GreedyBipartite on the
// same weights: the same edges, emitted in the same order, whatever the arena
// saw before.

// freshGreedy is the definition GreedyColumn is held to: the package-level
// GreedyBipartite, on a private arena, over links reweighted to col.
func freshGreedy(n int, links []Edge, col []int64) ([]Edge, int64) {
	we := make([]Edge, len(links))
	for i, l := range links {
		we[i] = Edge{From: l.From, To: l.To, Weight: col[i]}
	}
	return GreedyBipartite(n, we)
}

// checkColumn solves col on a (carrying whatever order a holds) and fails
// unless the result is freshGreedy's, edge for edge.
func checkColumn(t *testing.T, a *Arena, n int, links []Edge, col []int64, what string) {
	t.Helper()
	got, gw := a.GreedyColumn(n, links, col)
	want, ww := freshGreedy(n, links, col)
	if gw != ww || !slices.Equal(got, want) {
		t.Fatalf("%s: carried order gives weight %d, %d edges; a fresh sort gives %d, %d edges\n got %v\nwant %v",
			what, gw, len(got), ww, len(want), got, want)
	}
}

// queueLinks returns nLinks distinct links over n nodes, in (From, To) order
// as core passes them.
func queueLinks(rng *rand.Rand, n, nLinks int) []Edge {
	seen := make(map[[2]int]bool, nLinks)
	links := make([]Edge, 0, nLinks)
	for len(links) < nLinks {
		f, t := rng.Intn(n), rng.Intn(n)
		if f == t || seen[[2]int{f, t}] {
			continue
		}
		seen[[2]int{f, t}] = true
		links = append(links, Edge{From: f, To: t})
	}
	slices.SortFunc(links, func(x, y Edge) int {
		if x.From != y.From {
			return x.From - y.From
		}
		return x.To - y.To
	})
	return links
}

// queueColumns models core's g-table: every link holds a queue of up to
// maxEntries (count, per-packet weight) entries, heaviest first, and
// g(link, α) is the weight of its first α packets — concave, non-decreasing,
// flat once the queue is exhausted. Weights come from a few classes (the
// scaled 1/hops weights of the planner), so ties are the rule. cols[j] is the
// column of alphas[j].
func queueColumns(rng *rand.Rand, nLinks, maxEntries, maxCount int, alphas []int) [][]int64 {
	classes := []int64{27720 * 64, 13860 * 64, 9240 * 64, 6930 * 64}
	cols := make([][]int64, len(alphas))
	for j := range cols {
		cols[j] = make([]int64, nLinks)
	}
	for l := 0; l < nLinks; l++ {
		k := 1 + rng.Intn(maxEntries)
		counts, bws := make([]int, k), make([]int64, k)
		for e := range counts {
			counts[e], bws[e] = 1+rng.Intn(maxCount), classes[rng.Intn(len(classes))]
		}
		slices.SortFunc(bws, func(x, y int64) int { return int(y - x) })
		for j, a := range alphas {
			var g int64
			for e := 0; e < k && a > 0; e++ {
				take := min(a, counts[e])
				g += int64(take) * bws[e]
				a -= take
			}
			cols[j][l] = g
		}
	}
	return cols
}

// ascendingAlphas returns k distinct α's in [1, maxAlpha], ascending.
func ascendingAlphas(rng *rand.Rand, k, maxAlpha int) []int {
	as := rng.Perm(maxAlpha)[:k]
	for i := range as {
		as[i]++
	}
	slices.Sort(as)
	return as
}

// TestGreedyColumnEqualsFreshSort is the property behind the carried order:
// for concave per-link columns over ascending α sequences — ties, saturated
// links, and a link set that changes from one sequence to the next, as core's
// active links do between iterations — every carried solve is the fresh one.
// It also checks that both ways of reaching the order are exercised.
func TestGreedyColumnEqualsFreshSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		var a Arena
		for seq := 0; seq < 6; seq++ {
			nLinks := 1 + rng.Intn(min(n*(n-1), 400))
			links := queueLinks(rng, n, nLinks)
			alphas := ascendingAlphas(rng, 1+rng.Intn(40), 500)
			cols := queueColumns(rng, nLinks, 4, 200, alphas)
			if seq%3 == 2 {
				// Some links lose their queue altogether: zero at every α.
				for l := 0; l < nLinks; l += 1 + rng.Intn(5) {
					for j := range cols {
						cols[j][l] = 0
					}
				}
			}
			for _, col := range cols {
				checkColumn(t, &a, n, links, col, "concave columns")
			}
		}
		if a.Stats.GreedyResorted == 0 || a.Stats.GreedyResorted == a.Stats.GreedyCalls {
			t.Errorf("seed %d: %d of %d solves re-sorted; want some carried and some not", seed, a.Stats.GreedyResorted, a.Stats.GreedyCalls)
		}
	}
}

// TestGreedyColumnFallsBack: columns that share nothing order the links
// differently each time, so the repair runs out of budget and the radix sort
// takes over — with the same result. A column whose positive set differs, an
// arena last used on another list, and an empty column are the other ways out.
func TestGreedyColumnFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, nLinks = 40, 600
	links := queueLinks(rng, n, nLinks)
	var a Arena
	col := make([]int64, nLinks)
	for round := 0; round < 8; round++ {
		for i := range col {
			col[i] = 1 + rng.Int63n(1<<30)
		}
		checkColumn(t, &a, n, links, col, "unrelated columns")
	}
	if a.Stats.GreedyResorted != a.Stats.GreedyCalls || a.Stats.GreedyMoves != 0 {
		t.Fatalf("unrelated columns: %+v; want every solve re-sorted and no move counted", a.Stats)
	}
	// Same column again: carried at no cost.
	checkColumn(t, &a, n, links, col, "repeated column")
	if a.Stats.GreedyResorted != a.Stats.GreedyCalls-1 || a.Stats.GreedyMoves != 0 {
		t.Fatalf("repeated column: %+v; want it carried with no moves", a.Stats)
	}
	// One link drops out, another set of the same size comes in.
	col[3], col[7] = 0, -5
	checkColumn(t, &a, n, links, col, "smaller positive set")
	col[3] = 9
	checkColumn(t, &a, n, links, col, "grown positive set")
	col[3], col[7] = 0, 9
	checkColumn(t, &a, n, links, col, "same count, other links")
	// The arena's order may come from any earlier call, on any list: here as
	// many positive links as col has, at indices col does not reach.
	longer := queueLinks(rng, n, 2*nLinks)
	for i := nLinks + 1; i < len(longer); i++ {
		longer[i].Weight = 1 + rng.Int63n(1000)
	}
	a.GreedyBipartite(n, longer)
	checkColumn(t, &a, n, links, col, "after GreedyBipartite on a longer list")
	a.GreedyBipartite(n, longer[len(longer)-10:])
	checkColumn(t, &a, n, links, col, "after GreedyBipartite on a shorter list")
	clear(col)
	checkColumn(t, &a, n, links, col, "empty column")
	if m, w := a.GreedyColumn(n, links, col); m != nil || w != 0 {
		t.Fatalf("empty column matched %v (weight %d)", m, w)
	}
	checkColumn(t, &a, n, links[:0], nil, "no links")
}

// TestGreedyOrderAtArithmeticLimit: the order is kept on (int64 weight, int
// index) pairs, so nothing is packed and nothing can be truncated. The
// largest matching weight core.checkOptions admits is just under MaxInt64/4
// (Window 1, Delta 0). Here one node's links weigh half of that, the rest a
// thousandth each (so a matching stays under the ceiling), all differing only
// in their lowest bits or not at all, over more than 2^16 links: the matching
// must be that of a comparison sort — from the radix sort and from the
// carried order alike.
func TestGreedyOrderAtArithmeticLimit(t *testing.T) {
	const (
		n           = 320
		nLinks      = 1<<16 + 77
		maxAdmitted = math.MaxInt64/4 - 1
	)
	rng := rand.New(rand.NewSource(5))
	links := queueLinks(rng, n, nLinks)
	col := make([]int64, nLinks)
	level := func(l Edge) int64 {
		if l.From == 0 {
			return maxAdmitted / 2
		}
		return maxAdmitted / 1024
	}
	for i, l := range links {
		// Six values a level: most decisions fall to the index tie-break,
		// among indices on both sides of 2^16.
		col[i] = level(l) - rng.Int63n(6)
	}
	// reference is greedy over a stable comparison sort by weight descending.
	reference := func() ([]Edge, int64) {
		idx := make([]int, nLinks)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool { return col[idx[x]] > col[idx[y]] })
		usedFrom, usedTo := make([]bool, n), make([]bool, n)
		var m []Edge
		var total int64
		for _, i := range idx {
			if l := links[i]; col[i] > 0 && !usedFrom[l.From] && !usedTo[l.To] {
				usedFrom[l.From], usedTo[l.To] = true, true
				m = append(m, Edge{From: l.From, To: l.To, Weight: col[i]})
				total += col[i]
			}
		}
		return m, total
	}
	var a Arena
	for round := 0; round < 4; round++ {
		want, ww := reference()
		if ww <= maxAdmitted/2 || ww > maxAdmitted {
			t.Fatalf("round %d: reference weight %d; the instance is not at the limit %d", round, ww, int64(maxAdmitted))
		}
		got, gw := a.GreedyColumn(n, links, col)
		if gw != ww || !slices.Equal(got, want) {
			t.Fatalf("round %d: GreedyColumn gives weight %d, %d edges; the comparison sort %d, %d edges", round, gw, len(got), ww, len(want))
		}
		if fresh, fw := freshGreedy(n, links, col); fw != ww || !slices.Equal(fresh, want) {
			t.Fatalf("round %d: GreedyBipartite gives weight %d, %d edges; the comparison sort %d, %d edges", round, fw, len(fresh), ww, len(want))
		}
		// Move a few links to a neighbouring weight, each past some ten
		// thousand equals: the next round is served by the carried order.
		for k := 0; k < 6; k++ {
			i := rng.Intn(nLinks)
			col[i] = min(level(links[i]), col[i]+2*rng.Int63n(2)-1)
		}
	}
	if a.Stats.GreedyResorted != 1 || a.Stats.GreedyMoves == 0 {
		t.Fatalf("want the first of 4 solves re-sorted and the rest carried: %+v", a.Stats)
	}
}

// decodeCarriedFuzz turns raw fuzz bytes into a link list and a run of weight
// columns: byte 0 picks n in [1, 16], byte 1 the link count in [1, 48], then
// two bytes a link (duplicates allowed, as GreedyBipartite allows them), then
// one byte per link per column. A column's first byte decides how it is
// read: even — each weight is the previous column's plus a small step, up or
// down (the nearly sorted case); odd — each weight is the byte itself minus
// 3 (unrelated, some non-positive). Every fourth column is preceded by a
// GreedyBipartite call on a prefix of the list, which leaves the arena an
// order that means something else.
func decodeCarriedFuzz(data []byte) (n int, links []Edge, cols [][]int64, disturb []bool) {
	if len(data) < 2 {
		return 1, nil, nil, nil
	}
	n = int(data[0])%16 + 1
	nLinks := int(data[1])%48 + 1
	data = data[2:]
	for len(links) < nLinks && len(data) >= 2 {
		links = append(links, Edge{From: int(data[0]) % n, To: int(data[1]) % n, Weight: int64(data[0]) - 100})
		data = data[2:]
	}
	prev := make([]int64, len(links))
	for len(links) > 0 && len(data) >= len(links) && len(cols) < 24 {
		col := make([]int64, len(links))
		for i, b := range data[:len(links)] {
			if data[0]%2 == 0 {
				col[i] = prev[i] + int64(b%5) - 1
			} else {
				col[i] = int64(b) - 3
			}
		}
		disturb = append(disturb, len(cols)%4 == 3)
		cols, prev, data = append(cols, col), col, data[len(links):]
	}
	return n, links, cols, disturb
}

// FuzzGreedyCarriedOrder drives one arena through an arbitrary run of weight
// columns, with calls of the other greedy entry in between, and holds every
// solve to a fresh sort.
func FuzzGreedyCarriedOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 1, 2, 9, 9, 8, 9})
	// Ties throughout, then a slow drift.
	f.Add([]byte{8, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6,
		7, 7, 7, 7, 7, 7, 2, 2, 2, 2, 2, 2, 4, 1, 1, 1, 1, 1, 0, 3, 3, 3, 3, 3})
	// Unrelated columns with non-positive weights, duplicate links.
	f.Add([]byte{4, 5, 0, 1, 0, 1, 2, 3, 3, 2, 1, 0,
		1, 200, 3, 0, 90, 5, 2, 250, 1, 7, 9, 9, 9, 9, 9, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, links, cols, disturb := decodeCarriedFuzz(data)
		var a Arena
		for j, col := range cols {
			if disturb[j] {
				a.GreedyBipartite(n, links[:len(links)/2])
			}
			checkColumn(t, &a, n, links, col, "fuzzed column")
		}
		if calls := a.Stats.GreedyCalls; a.Stats.GreedyResorted > calls || a.Stats.GreedyMoves > moveBudget*a.Stats.GreedyEdges {
			t.Fatalf("stats out of range: %+v", a.Stats)
		}
	})
}
