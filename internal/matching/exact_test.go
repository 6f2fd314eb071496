package matching

import (
	"math/rand"
	"slices"
	"testing"
)

// randInstance draws a random bipartite instance: n nodes per side, edge
// probability density, weights in [-5, maxW] (so some edges
// are non-positive and must be ignored), with occasional duplicates.
func randInstance(rng *rand.Rand, n int, density float64, maxW int64) []Edge {
	var edges []Edge
	for f := 0; f < n; f++ {
		for t := 0; t < n; t++ {
			if rng.Float64() >= density {
				continue
			}
			w := rng.Int63n(maxW+6) - 5
			edges = append(edges, Edge{From: f, To: t, Weight: w})
			if rng.Float64() < 0.05 {
				edges = append(edges, Edge{From: f, To: t, Weight: rng.Int63n(maxW + 1)})
			}
		}
	}
	// Shuffle so compaction order is not the generation order.
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// pairWeights returns the weight the solver must see for each (From, To)
// pair: the largest positive weight among its duplicates; pairs with none
// are absent (weight 0).
func pairWeights(edges []Edge) map[[2]int]int64 {
	w := map[[2]int]int64{}
	for _, e := range edges {
		if k := [2]int{e.From, e.To}; e.Weight > w[k] {
			w[k] = e.Weight
		}
	}
	return w
}

// checkValidMatching asserts m is a matching over the positive edges of the
// instance: endpoints distinct, weights consistent with the (max-duplicate)
// input weight, total correct.
func checkValidMatching(t *testing.T, n int, edges, m []Edge, total int64) {
	t.Helper()
	maxW := pairWeights(edges)
	usedF, usedT := map[int]bool{}, map[int]bool{}
	var sum int64
	for _, e := range m {
		if e.Weight <= 0 {
			t.Fatalf("non-positive matched edge %+v", e)
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			t.Fatalf("edge endpoints out of range: %+v", e)
		}
		if usedF[e.From] || usedT[e.To] {
			t.Fatalf("matching reuses a node: %+v", e)
		}
		usedF[e.From], usedT[e.To] = true, true
		if maxW[[2]int{e.From, e.To}] != e.Weight {
			t.Fatalf("matched edge %+v does not carry the input max weight %d",
				e, maxW[[2]int{e.From, e.To}])
		}
		sum += e.Weight
	}
	if sum != total {
		t.Fatalf("reported total %d != summed %d", total, sum)
	}
}

// checkCertificate proves the arena's last MaxWeightBipartite result optimal
// from the arena's own duals, without a second solver. Signs are
// insertRow's: rows and columns are 1-indexed, p[j] is the row matched
// to column j, cost(i, j) = -weight with absent pairs and padding columns
// costing 0 (recomputed here from the input, not read from the arena's
// matrix). Dual feasibility (u[i]+v[j] <= cost(i,j), v <= 0) bounds every
// assignment's cost below by Σu+Σv; complementary slackness (equality on
// matched pairs, v = 0 on unmatched columns) says this assignment meets the
// bound, so total = -(Σu+Σv) is the maximum weight.
func checkCertificate(t *testing.T, a *Arena, edges []Edge, total int64) {
	t.Helper()
	nr, ncReal := len(a.rows), len(a.cols)
	if nr == 0 {
		if total != 0 {
			t.Fatalf("empty instance reported weight %d", total)
		}
		return
	}
	nc := max(nr, ncReal)
	weight := pairWeights(edges)
	cost := func(i, j int) int64 {
		if j > ncReal {
			return 0
		}
		return -weight[[2]int{a.rows[i-1], a.cols[j-1]}]
	}
	matchedRow := make([]bool, nr+1)
	var dual, matched int64
	for j := 1; j <= nc; j++ {
		dual += a.v[j]
		if a.v[j] > 0 {
			t.Fatalf("v[%d] = %d > 0", j, a.v[j])
		}
		i := a.p[j]
		if i == 0 {
			if a.v[j] != 0 {
				t.Fatalf("unmatched column %d has v = %d", j, a.v[j])
			}
			continue
		}
		if matchedRow[i] {
			t.Fatalf("row %d matched twice", i)
		}
		matchedRow[i] = true
		if a.u[i]+a.v[j] != cost(i, j) {
			t.Fatalf("matched pair (%d,%d): u+v = %d, cost %d", i, j, a.u[i]+a.v[j], cost(i, j))
		}
		matched -= cost(i, j)
	}
	for i := 1; i <= nr; i++ {
		dual += a.u[i]
		if !matchedRow[i] {
			t.Fatalf("row %d left unassigned", i)
		}
		for j := 1; j <= nc; j++ {
			if a.u[i]+a.v[j] > cost(i, j) {
				t.Fatalf("pair (%d,%d) infeasible: u+v = %d > cost %d", i, j, a.u[i]+a.v[j], cost(i, j))
			}
		}
	}
	if matched != total || total != -dual {
		t.Fatalf("reported weight %d, matched weight %d, dual objective %d", total, matched, -dual)
	}
}

// TestExactDualCertificate stands where a second large-instance solver used
// to: BruteForceBipartite reaches about 8 rows, the certificate reaches any
// size.
func TestExactDualCertificate(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		var a Arena
		for trial := 0; trial < 400; trial++ {
			n := 2 + rng.Intn(63)
			density := []float64{0.02, 0.05, 0.1, 0.3, 0.9}[rng.Intn(5)]
			maxW := []int64{1, 3, 1000, 1 << 40}[rng.Intn(4)]
			edges := randInstance(rng, n, density, maxW)
			// Every third instance is rectangular: wide, then tall (which
			// takes the column-padding branch).
			switch keep := 1 + rng.Intn(n); trial % 3 {
			case 1:
				edges = slices.DeleteFunc(edges, func(e Edge) bool { return e.From >= keep })
			case 2:
				edges = slices.DeleteFunc(edges, func(e Edge) bool { return e.To >= keep })
			}
			solveChecked(t, &a, n, edges)
		}
	})
	// Every row fights for the same columns at one weight: each insertion
	// chains through all previously matched columns, and half the rows end
	// on padding.
	t.Run("tied-rectangular", func(t *testing.T) {
		n := 48
		var edges []Edge
		for f := 0; f < n; f++ {
			for to := 0; to < n/2; to++ {
				edges = append(edges, Edge{From: f, To: to, Weight: 10})
			}
		}
		var a Arena
		if _, w := solveChecked(t, &a, n, edges); w != int64(10*n/2) {
			t.Fatalf("weight %d, want %d", w, 10*n/2)
		}
	})
}

// TestExactVsBruteForce pins the solver to the brute-force oracle on small
// instances.
func TestExactVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Arena
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		edges := randInstance(rng, n, 0.6, 9)
		_, want := BruteForceBipartite(n, edges)
		if _, w := solveChecked(t, &a, n, edges); w != want {
			t.Fatalf("trial %d (n=%d): solver=%d oracle=%d edges=%v", trial, n, w, want, edges)
		}
	}
}

// TestExactBoundaries covers the all-non-positive and empty-active-set
// boundary instances.
func TestExactBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"nil", 4, nil},
		{"empty", 4, []Edge{}},
		{"all-non-positive", 4, []Edge{{0, 1, 0}, {1, 2, -3}, {2, 0, -1}}},
		{"n-zero", 0, nil},
	}
	var a Arena
	for _, tc := range cases {
		if m, w := a.MaxWeightBipartite(tc.n, tc.edges); m != nil || w != 0 {
			t.Fatalf("%s: expected empty result, got %v/%d", tc.name, m, w)
		}
	}
}

// TestExactMoreRowsThanCols exercises the nc < nr padding branch (more
// distinct From-nodes than To-nodes).
func TestExactMoreRowsThanCols(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 0, Weight: 5},
		{From: 1, To: 0, Weight: 7},
		{From: 2, To: 0, Weight: 6},
		{From: 3, To: 1, Weight: 2},
		{From: 4, To: 1, Weight: 1},
	}
	var a Arena
	if m, w := solveChecked(t, &a, 8, edges); w != 9 {
		t.Fatalf("expected weight 9, got %d (%v)", w, m)
	}
}
