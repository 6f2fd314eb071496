package matching

import (
	"slices"
	"testing"
)

func TestArenaStats(t *testing.T) {
	var a Arena
	edges := []Edge{
		{From: 0, To: 1, Weight: 5},
		{From: 1, To: 0, Weight: 3},
		{From: 0, To: 0, Weight: 1},
		{From: 1, To: 1, Weight: -2}, // filtered out
	}

	a.GreedyBipartite(2, edges)
	s := a.Stats
	if s.GreedyCalls != 1 || s.GreedyEdges != 3 || s.GreedyMatched != 2 {
		t.Fatalf("greedy stats after first call: %+v", s)
	}
	if s.Grows != 1 || s.Reuses != 0 {
		t.Fatalf("first greedy call should grow: %+v", s)
	}
	a.GreedyBipartite(2, edges)
	if a.Stats.GreedyCalls != 2 || a.Stats.Reuses != 1 {
		t.Fatalf("second greedy call should reuse: %+v", a.Stats)
	}

	a.MaxWeightBipartite(2, edges)
	s = a.Stats
	if s.ExactCalls != 1 || s.ExactRows != 2 {
		t.Fatalf("exact stats after first call: %+v", s)
	}
	if s.AugmentRounds < 2 {
		t.Fatalf("exact call recorded %d augment rounds for 2 rows", s.AugmentRounds)
	}
	if s.Grows != 2 {
		t.Fatalf("first exact call should grow: %+v", s)
	}
	a.MaxWeightBipartite(2, edges)
	if a.Stats.ExactCalls != 2 || a.Stats.Reuses != 2 {
		t.Fatalf("second exact call should reuse: %+v", a.Stats)
	}

	// Empty instance still counts the call but solves no rows.
	a.MaxWeightBipartite(2, nil)
	if a.Stats.ExactCalls != 3 || a.Stats.ExactRows != 4 {
		t.Fatalf("empty exact call stats: %+v", a.Stats)
	}

	var sum Stats
	a.Stats.AddTo(&sum)
	a.Stats.AddTo(&sum)
	if sum.ExactCalls != 2*a.Stats.ExactCalls || sum.GreedyEdges != 2*a.Stats.GreedyEdges ||
		sum.AugmentRounds != 2*a.Stats.AugmentRounds || sum.FullScans != 2*a.Stats.FullScans ||
		sum.Grows != 2*a.Stats.Grows || sum.GreedyProposals != 2*a.Stats.GreedyProposals {
		t.Fatalf("AddTo not field-complete: %+v vs %+v", sum, a.Stats)
	}
}

// TestArenaStatsDoNotPerturbResults guards the read-only invariant: a
// stats-bearing arena must return the same matchings as a fresh one.
func TestArenaStatsDoNotPerturbResults(t *testing.T) {
	edges := []Edge{
		{From: 0, To: 2, Weight: 9},
		{From: 1, To: 2, Weight: 8},
		{From: 1, To: 3, Weight: 7},
		{From: 2, To: 3, Weight: 6},
		{From: 0, To: 3, Weight: 5},
	}
	var a Arena
	for i := 0; i < 3; i++ {
		gotM, gotW := a.MaxWeightBipartite(4, edges)
		wantM, wantW := new(Arena).MaxWeightBipartite(4, edges)
		if gotW != wantW || len(gotM) != len(wantM) {
			t.Fatalf("iter %d: exact arena diverged: %v/%d vs %v/%d", i, gotM, gotW, wantM, wantW)
		}
		for j := range gotM {
			if gotM[j] != wantM[j] {
				t.Fatalf("iter %d: exact edge %d differs: %v vs %v", i, j, gotM[j], wantM[j])
			}
		}
	}
}

// TestArenaResultsOutliveTheOtherKind: a greedy result survives an exact call
// on the same arena and an exact result a greedy call (see Arena).
func TestArenaResultsOutliveTheOtherKind(t *testing.T) {
	edges := []Edge{{From: 0, To: 2, Weight: 9}, {From: 1, To: 2, Weight: 8}, {From: 1, To: 3, Weight: 7}, {From: 0, To: 3, Weight: 5}}
	var a Arena
	gm, _ := a.GreedyBipartite(4, edges)
	greedy := slices.Clone(gm)
	xm, _ := a.MaxWeightBipartite(4, edges[1:])
	if !slices.Equal(gm, greedy) {
		t.Errorf("greedy result %v changed under an exact call, want %v", gm, greedy)
	}
	exact := slices.Clone(xm)
	a.GreedyColumn(4, edges, []int64{1, 2, 3, 4})
	if !slices.Equal(xm, exact) {
		t.Errorf("exact result %v changed under a greedy call, want %v", xm, exact)
	}
}

// TestArenaShrinkThenGrow guards against stale state leaking across
// instance sizes: a big solve, then a small one, then big again must match
// a fresh arena — and the textbook loop, duals included — at every step. The
// matrix, the potentials, the block minima and the per-row column lists all
// outlive the small call; the rectangular steps change the column count, and
// with it the block layout, while the buffers stay the size of the biggest.
func TestArenaShrinkThenGrow(t *testing.T) {
	big := func(seed int64) []Edge {
		var edges []Edge
		for f := 0; f < 64; f++ {
			for d := 0; d < 5; d++ {
				to := (f*3 + d*7 + int(seed)) % 64
				edges = append(edges, Edge{From: f, To: to, Weight: int64((f+d)%11) + 1 + seed})
			}
		}
		return edges
	}
	// rect keeps the edges of big(seed) among the first nr rows and nc columns.
	rect := func(seed int64, nr, nc int) []Edge {
		return slices.DeleteFunc(big(seed), func(e Edge) bool { return e.From >= nr || e.To >= nc })
	}
	small := []Edge{{0, 1, 3}, {1, 0, 2}, {2, 2, 7}}

	var a Arena
	steps := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"big-1", 64, big(1)},
		{"small", 4, small},
		{"big-2", 64, big(2)},
		{"small-again", 4, small},
		{"big-3", 64, big(1)},
		{"wide-64", 64, rect(3, 20, 64)},
		{"tall-8", 8, rect(3, 8, 3)},
		{"tall-64", 64, rect(4, 64, 20)},
		{"wide-8", 8, rect(4, 3, 8)},
		{"big-4", 64, big(2)},
	}
	for _, st := range steps {
		var fresh Arena
		gotM, gotW := solveChecked(t, &a, st.n, st.edges)
		wantM, wantW := fresh.MaxWeightBipartite(st.n, st.edges)
		if gotW != wantW || !slices.Equal(gotM, wantM) {
			t.Fatalf("%s: reused arena diverged: %v/%d vs %v/%d", st.name, gotM, gotW, wantM, wantW)
		}
	}
}
