package matching

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file holds the greedy matcher to its definition, refGreedy: a stable
// sort of the positive links by weight descending (so the lower index first
// among equals), then one scan keeping each link whose endpoints are both
// free. The arena reaches that matching by deferred acceptance, with no sort;
// the tests compare edge for edge, whatever the arena saw before.

// refGreedy is the definition: the greedy matching of links reweighted to col
// (links' own weights when col is nil), emitted in ascending index.
func refGreedy(n int, links []Edge, col []int64) ([]Edge, int64) {
	weight := func(i int) int64 {
		if col == nil {
			return links[i].Weight
		}
		return col[i]
	}
	var ord []int
	for i := range links {
		if weight(i) > 0 {
			ord = append(ord, i)
		}
	}
	sort.SliceStable(ord, func(x, y int) bool { return weight(ord[x]) > weight(ord[y]) })
	usedFrom, usedTo := make([]bool, n), make([]bool, n)
	var kept []int
	for _, i := range ord {
		if l := links[i]; !usedFrom[l.From] && !usedTo[l.To] {
			usedFrom[l.From], usedTo[l.To] = true, true
			kept = append(kept, i)
		}
	}
	slices.Sort(kept)
	var m []Edge
	var total int64
	for _, i := range kept {
		m = append(m, Edge{From: links[i].From, To: links[i].To, Weight: weight(i)})
		total += weight(i)
	}
	return m, total
}

// checkColumn solves col on a (whatever a saw before) and fails unless the
// result is refGreedy's, edge for edge, and the proposals stay in their bound.
func checkColumn(t *testing.T, a *Arena, n int, links []Edge, col []int64, what string) {
	t.Helper()
	before := a.Stats
	got, gw := a.GreedyColumn(n, links, col)
	want, ww := refGreedy(n, links, col)
	if gw != ww || !slices.Equal(got, want) || len(want) == 0 && got != nil {
		t.Fatalf("%s: the arena gives weight %d, %d edges; the definition gives %d, %d edges\n got %v\nwant %v",
			what, gw, len(got), ww, len(want), got, want)
	}
	checkProposalBound(t, before, a.Stats, links, what)
}

// checkProposalBound fails unless the one greedy call between before and
// after made at most as many proposals as it had positive links plus From
// nodes: an accepted proposal uses a link up for good, and one that finds
// nothing ends its node's turn.
func checkProposalBound(t *testing.T, before, after Stats, links []Edge, what string) {
	t.Helper()
	from := make(map[int]bool)
	for _, l := range links {
		from[l.From] = true
	}
	proposals, positive := after.GreedyProposals-before.GreedyProposals, after.GreedyEdges-before.GreedyEdges
	if proposals > positive+int64(len(from)) {
		t.Fatalf("%s: %d proposals over %d positive links from %d nodes", what, proposals, positive, len(from))
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

// checkBipartite is checkColumn for GreedyBipartite, weights from the links.
func checkBipartite(t *testing.T, a *Arena, n int, links []Edge, what string) {
	t.Helper()
	before := a.Stats
	got, gw := a.GreedyBipartite(n, links)
	want, ww := refGreedy(n, links, nil)
	if gw != ww || !slices.Equal(got, want) || len(want) == 0 && got != nil {
		t.Fatalf("%s: GreedyBipartite gives weight %d, %d edges; the definition gives %d, %d edges\n got %v\nwant %v",
			what, gw, len(got), ww, len(want), got, want)
	}
	checkProposalBound(t, before, a.Stats, links, what)
}

// reweighted returns links with col as their weights, in a shuffled order.
func reweighted(rng *rand.Rand, links []Edge, col []int64) []Edge {
	out := make([]Edge, len(links))
	for i, l := range links {
		out[i] = Edge{From: l.From, To: l.To, Weight: col[i]}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestGreedyColumnEqualsFreshSort: for concave per-link columns over
// ascending α sequences — ties, saturated links, and a link set that changes
// from one sequence to the next, as core's active links do between
// iterations — every solve on one arena is the definition's. Each column is
// also solved as a shuffled list, which the arena first groups by From.
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
				checkBipartite(t, &a, n, reweighted(rng, links, col), "shuffled concave columns")
			}
		}
	}
}

// TestGreedyProposalBound: proposals never exceed positive links plus From
// nodes, on lists built to make them many — every From node reaching every
// To node, the later nodes' links heavier, so each arrival displaces every
// earlier holder — as well as on ties, duplicates, non-positive weights and
// an empty list. The count depends on the list alone: a second arena, used on
// other lists before, counts the same, and so does a list's grouped copy.
func TestGreedyProposalBound(t *testing.T) {
	const n = 24
	var ladder, ties, mixed []Edge
	rng := rand.New(rand.NewSource(3))
	for f := 0; f < n; f++ {
		for to := 0; to < n; to++ {
			ladder = append(ladder, Edge{From: f, To: to, Weight: int64(1 + f*n + to)})
			ties = append(ties, Edge{From: f, To: to, Weight: 7})
			for k := rng.Intn(3); k > 0; k-- {
				mixed = append(mixed, Edge{From: f, To: to, Weight: rng.Int63n(9) - 3})
			}
		}
	}
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	var used Arena
	used.GreedyBipartite(n, mixed[:len(mixed)/3])
	for _, c := range []struct {
		name    string
		links   []Edge
		atLeast int64 // proposals
	}{
		{"ladder", ladder, n * (n + 1) / 2}, // the f-th node displaces every earlier one
		{"ties", ties, n},
		{"mixed", mixed, 0},
		{"nothing positive", []Edge{{0, 1, 0}, {1, 0, -4}, {0, 2, 0}}, 0},
		{"empty", nil, 0},
	} {
		var a Arena
		checkBipartite(t, &a, n, c.links, c.name)
		if a.Stats.GreedyProposals < c.atLeast {
			t.Errorf("%s: %d proposals, want at least %d", c.name, a.Stats.GreedyProposals, c.atLeast)
		}
		before := used.Stats.GreedyProposals
		checkBipartite(t, &used, n, c.links, c.name+" on a used arena")
		if got := used.Stats.GreedyProposals - before; got != a.Stats.GreedyProposals {
			t.Errorf("%s: %d proposals on a used arena, %d on a fresh one", c.name, got, a.Stats.GreedyProposals)
		}
	}
	// A list that must first be grouped counts what its grouped copy counts:
	// the attempt in place, given up at the last link, is not counted.
	moved := append(slices.Clone(ladder[1:]), ladder[0])
	regrouped := slices.Clone(moved)
	slices.SortStableFunc(regrouped, func(x, y Edge) int { return x.From - y.From })
	var a, b Arena
	checkBipartite(t, &a, n, moved, "ladder, first link last")
	checkBipartite(t, &b, n, regrouped, "ladder, regrouped")
	if a.Stats.GreedyProposals != b.Stats.GreedyProposals {
		t.Errorf("%d proposals on the ladder with its first link last, %d on its grouped copy", a.Stats.GreedyProposals, b.Stats.GreedyProposals)
	}
}

// TestGreedyOrderAtArithmeticLimit: the order is kept on (int64 weight, int
// index) pairs, so nothing is packed and nothing can be truncated. The
// largest matching weight core.checkOptions admits is just under MaxInt64/4
// (Window 1, Delta 0). Here one node's links weigh half of that, the rest a
// thousandth each (so a matching stays under the ceiling), all differing only
// in their lowest bits or not at all, over more than 2^16 links: the matching
// must be the definition's, as one list in (From, To) order and shuffled.
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
	var a Arena
	for round := 0; round < 4; round++ {
		if _, ww := refGreedy(n, links, col); ww <= maxAdmitted/2 || ww > maxAdmitted {
			t.Fatalf("round %d: reference weight %d; the instance is not at the limit %d", round, ww, int64(maxAdmitted))
		}
		checkColumn(t, &a, n, links, col, "at the limit")
		checkBipartite(t, &a, n, reweighted(rng, links, col), "shuffled at the limit")
		// Move a few links to a neighbouring weight, each past some ten
		// thousand equals.
		for k := 0; k < 6; k++ {
			i := rng.Intn(nLinks)
			col[i] = min(level(links[i]), col[i]+2*rng.Int63n(2)-1)
		}
	}
}

// decodeCarriedFuzz turns raw fuzz bytes into a link list and a run of weight
// columns: byte 0 picks n in [1, 16], byte 1 the link count in [1, 48], then
// two bytes a link (in any order, duplicates allowed), then one byte per link
// per column. A column's first byte decides how it is read: even — each
// weight is the previous column's plus a small step, up or down; odd — each
// weight is the byte itself minus 3 (unrelated, some non-positive). Every
// fourth column is preceded by a GreedyBipartite call on a prefix of the
// list, weights from the link bytes (some non-positive).
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
// columns over one link list, with GreedyBipartite calls in between, and holds
// every solve to refGreedy and the proposal bound. (The name is that of the
// sorted order the arena once carried between columns; the seeds keep it.)
func FuzzGreedyCarriedOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 1, 2, 9, 9, 8, 9})
	// Ties throughout, then a slow drift.
	f.Add([]byte{8, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6,
		7, 7, 7, 7, 7, 7, 2, 2, 2, 2, 2, 2, 4, 1, 1, 1, 1, 1, 0, 3, 3, 3, 3, 3})
	// Unrelated columns with non-positive weights, duplicate links.
	f.Add([]byte{4, 5, 0, 1, 0, 1, 2, 3, 3, 2, 1, 0,
		1, 200, 3, 0, 90, 5, 2, 250, 1, 7, 9, 9, 9, 9, 9, 2, 2, 2, 2, 2})
	// A list not grouped by From (0, 1, 0, 2, 1), equal weights throughout.
	f.Add([]byte{2, 4, 0, 1, 1, 0, 0, 2, 2, 1, 1, 2,
		9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	// (1, 2) three times among others; weights rise, fall and drift.
	f.Add([]byte{3, 5, 1, 2, 1, 2, 0, 2, 1, 2, 1, 3, 2, 2,
		5, 7, 9, 3, 9, 1, 9, 11, 13, 4, 2, 1, 6, 8, 3, 1, 9, 5})
	// Every weight non-positive, the GreedyBipartite prefix included, then a
	// column with one positive link.
	f.Add([]byte{4, 3, 0, 1, 1, 2, 0, 3, 4, 4,
		1, 2, 3, 1, 1, 0, 3, 1, 3, 3, 3, 7, 1, 1, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, links, cols, disturb := decodeCarriedFuzz(data)
		var a Arena
		for j, col := range cols {
			if disturb[j] {
				checkBipartite(t, &a, n, links[:len(links)/2], "fuzzed prefix")
			}
			checkColumn(t, &a, n, links, col, "fuzzed column")
		}
	})
}
