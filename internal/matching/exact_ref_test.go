package matching

import (
	"math/rand"
	"slices"
	"testing"
)

// refInsertRow is the textbook shortest-augmenting-path row insertion
// (e-maxx / Jonker-Volgenant): used[] marks, one ascending strict-< scan of
// every unused column per round, "u[p[j]] += delta, v[j] -= delta" on the
// tree and "minv[j] -= delta" off it after every round. Arena.insertRow
// must make the same comparisons with the same outcomes; this loop is the
// definition of "the same". Arrays are 1-indexed as in the arena.
func refInsertRow(w, u, v []int64, p, way []int, i, nc int) (rounds int64) {
	minv := make([]int64, nc+1)
	used := make([]bool, nc+1)
	for j := range minv {
		minv[j] = inf
	}
	p[0] = i
	j0 := 0
	for {
		rounds++
		used[j0] = true
		i0 := p[j0]
		delta, j1 := int64(inf), 0
		for j := 1; j <= nc; j++ {
			if used[j] {
				continue
			}
			if cur := -w[(i0-1)*nc+j-1] - u[i0] - v[j]; cur < minv[j] {
				minv[j], way[j] = cur, j0
			}
			if minv[j] < delta {
				delta, j1 = minv[j], j
			}
		}
		for j := 0; j <= nc; j++ {
			if used[j] {
				u[p[j]] += delta
				v[j] -= delta
			} else {
				minv[j] -= delta
			}
		}
		j0 = j1
		if p[j0] == 0 {
			break
		}
	}
	for j0 != 0 {
		j1 := way[j0]
		p[j0] = p[j1]
		j0 = j1
	}
	return rounds
}

// refSolve runs the textbook loop over the arena's own compaction and
// matrix (neither is what insertRow changed) and leaves duals, assignment
// and result in the returned arena, with the round count in its Stats.
func refSolve(n int, edges []Edge) (ref *Arena, m []Edge, total int64) {
	ref = new(Arena)
	nr, nc := ref.compactExact(n, edges)
	if nr == 0 {
		ref.restoreIDMaps()
		return ref, nil, 0
	}
	nc = max(nc, nr)
	ref.prepDense(edges, nr, nc)
	for i := 1; i <= nr; i++ {
		ref.Stats.AugmentRounds += refInsertRow(ref.w, ref.u, ref.v, ref.p, ref.way, i, nc)
	}
	ref.restoreIDMaps()
	m, total = ref.extractExact(nc)
	return ref, m, total
}

// solveChecked solves one instance on a and holds the result to everything
// this package can say about it: a valid matching, the dual certificate of
// optimality, and event identity with the textbook loop — the same matching
// edge for edge, the same u, v, p and way, the same number of rounds.
func solveChecked(t *testing.T, a *Arena, n int, edges []Edge) ([]Edge, int64) {
	t.Helper()
	before := a.Stats.AugmentRounds
	m, w := a.MaxWeightBipartite(n, edges)
	checkValidMatching(t, n, edges, m, w)
	checkCertificate(t, a, edges, w)

	ref, rm, rw := refSolve(n, edges)
	if w != rw || !slices.Equal(m, rm) {
		t.Fatalf("matching differs from the textbook loop: %v/%d, want %v/%d", m, w, rm, rw)
	}
	if len(ref.rows) == 0 {
		return m, w
	}
	if got, want := a.Stats.AugmentRounds-before, ref.Stats.AugmentRounds; got != want {
		t.Fatalf("%d augment rounds, textbook loop %d", got, want)
	}
	if !slices.Equal(a.u, ref.u) || !slices.Equal(a.v, ref.v) {
		t.Fatalf("duals differ from the textbook loop:\nu %v\n  %v\nv %v\n  %v", a.u, ref.u, a.v, ref.v)
	}
	if !slices.Equal(a.p, ref.p) || !slices.Equal(a.way, ref.way) {
		t.Fatalf("assignment differs from the textbook loop:\np   %v\n    %v\nway %v\n    %v", a.p, ref.p, a.way, ref.way)
	}
	return m, w
}

// tiedInstance draws the shape of the planner's small-α instances: few
// distinct weights (every queued link saturated, one class per hop weight)
// on a sparse support.
func tiedInstance(rng *rand.Rand, n int, density float64, values []int64) []Edge {
	var edges []Edge
	for f := 0; f < n; f++ {
		for to := 0; to < n; to++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{From: f, To: to, Weight: values[rng.Intn(len(values))]})
			}
		}
	}
	return edges
}

// TestExactEventIdentity drives insertRow through the shapes its three
// shortcuts depend on; every solve goes through solveChecked. (The random
// generator of TestExactDualCertificate, the brute-force instances and the
// fuzz corpus go through it too.)
func TestExactEventIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var a Arena // one arena for all, so every case also meets stale buffers

	t.Run("tied-sparse", func(t *testing.T) {
		for _, n := range []int{64, 256} {
			for _, values := range [][]int64{{7}, {64, 128}, {64, 128, 192}} {
				solveChecked(t, &a, n, tiedInstance(rng, n, 0.10, values))
			}
		}
	})
	// Block boundaries: nc of 1, 15, 16, 17 and 33 columns, rows from fewer
	// than columns to more (the padding branch).
	t.Run("column-counts", func(t *testing.T) {
		for _, nc := range []int{1, 15, 16, 17, 33} {
			for _, nr := range []int{1, nc, nc + 3, 2 * nc} {
				for rep := 0; rep < 4; rep++ {
					var edges []Edge
					for f := 0; f < nr; f++ {
						for to := 0; to < nc; to++ {
							if rng.Intn(3) > 0 {
								edges = append(edges, Edge{From: f, To: to, Weight: 1 + rng.Int63n(4)})
							}
						}
					}
					// Keep the last column in play so nc is what it says.
					edges = append(edges, Edge{From: 0, To: nc - 1, Weight: 2})
					solveChecked(t, &a, max(nr, nc), edges)
				}
			}
		}
	})
	// Every cell positive: every row's column list is the whole row.
	t.Run("fully-positive", func(t *testing.T) {
		for _, n := range []int{17, 64} {
			for _, maxW := range []int64{2, 1 << 30} {
				var edges []Edge
				for f := 0; f < n; f++ {
					for to := 0; to < n; to++ {
						edges = append(edges, Edge{From: f, To: to, Weight: 1 + rng.Int63n(maxW)})
					}
				}
				solveChecked(t, &a, n, edges)
			}
		}
	})
	// Both kinds of round must actually run: a whole-row scan beyond each
	// row's first round (a row joining the tree with a base below every
	// earlier one) and short rounds.
	t.Run("both-branches", func(t *testing.T) {
		var b Arena
		edges := tiedInstance(rng, 96, 0.10, []int64{64, 128, 192})
		solveChecked(t, &b, 96, edges)
		s := b.Stats
		if s.FullScans <= s.ExactRows {
			t.Fatalf("no whole-row scan after a first round: %+v", s)
		}
		if s.FullScans >= s.AugmentRounds {
			t.Fatalf("no short round: %+v", s)
		}
	})
	// Duplicate edges: a cell listed two or three times, its heavier copy
	// first, last or in the middle, the lighter copies of lower weight. A
	// short round must read the cell's max, so a packed weight taken before
	// the last copy is folded in breaks identity in one of the three.
	t.Run("duplicates", func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for _, heavyAt := range []string{"first", "last", "middle"} {
			t.Run(heavyAt, func(t *testing.T) {
				for _, n := range []int{64, 128} {
					var edges []Edge
					for _, e := range tiedInstance(rng, n, 0.10, []int64{64, 128, 192}) {
						copies, at := 2+rng.Intn(2), 0
						switch heavyAt {
						case "last":
							at = copies - 1
						case "middle":
							copies, at = 3, 1
						}
						for c := range copies {
							d := e
							if c != at {
								d.Weight = 1 + rng.Int63n(e.Weight-1)
							}
							edges = append(edges, d)
						}
					}
					solveChecked(t, &a, n, edges)
				}
			})
		}
	})
}

// TestFullScansCounted pins the meaning of Stats.FullScans on the smallest
// instance that has both kinds of round.
func TestFullScansCounted(t *testing.T) {
	// Row 0 takes column 0 at u = -5. Row 1 wants it too: round one scans
	// row 1 whole (base 0), column 0 joins the tree at d = -5, and row 0's
	// base d - u is 0 again — not smaller, so it relaxes column 1 only.
	edges := []Edge{{0, 0, 5}, {0, 1, 4}, {1, 0, 5}}
	var a Arena
	m, w := solveChecked(t, &a, 2, edges)
	if w != 9 || len(m) != 2 {
		t.Fatalf("got %v/%d, want weight 9", m, w)
	}
	if s := a.Stats; s.AugmentRounds != 3 || s.FullScans != 2 {
		t.Fatalf("rounds %d, full scans %d; want 3 and 2", s.AugmentRounds, s.FullScans)
	}
}
