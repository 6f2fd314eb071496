package core

import (
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/matching"
)

// refRowColUB is the two-pass definition of rowColUB: the maxima gathered
// over the positive links, then summed and cleared by walking the same
// links again.
func refRowColUB(links []matching.Edge, w []int64, rowMax, colMax []int64) int64 {
	for i, g := range w {
		if g > 0 {
			e := links[i]
			rowMax[e.From] = max(rowMax[e.From], g)
			colMax[e.To] = max(colMax[e.To], g)
		}
	}
	var rs, cs int64
	for i, g := range w {
		if g > 0 {
			e := links[i]
			rs, rowMax[e.From] = rs+rowMax[e.From], 0
			cs, colMax[e.To] = cs+colMax[e.To], 0
		}
	}
	return min(rs, cs)
}

// TestRowColUBEqualsTwoPass holds rowColUB to refRowColUB on random link
// lists (repeated links included) and columns with zero and negative
// weights, one pair of arrays across every case as in a worker's scratch:
// the same bound, and both arrays all-zero afterwards.
func TestRowColUBEqualsTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	row, col := make([]int64, 40), make([]int64, 40)
	refRow, refCol := make([]int64, 40), make([]int64, 40)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		links := make([]matching.Edge, rng.Intn(3*n))
		w := make([]int64, len(links))
		for i := range links {
			links[i] = matching.Edge{From: rng.Intn(n), To: rng.Intn(n)}
			switch rng.Intn(3) {
			case 0: // zero
			case 1:
				w[i] = -1 - rng.Int63n(50)
			default:
				w[i] = 1 + rng.Int63n(50)
			}
		}
		got := rowColUB(links, w, row[:n], col[:n])
		if want := refRowColUB(links, w, refRow[:n], refCol[:n]); got != want {
			t.Fatalf("trial %d: rowColUB %d, two-pass reference %d (links %v, w %v)", trial, got, want, links, w)
		}
		if slices.ContainsFunc(row, func(x int64) bool { return x != 0 }) || slices.ContainsFunc(col, func(x int64) bool { return x != 0 }) {
			t.Fatalf("trial %d: arrays not cleared: row %v col %v", trial, row, col)
		}
	}
}

// BenchmarkRowColUB times one phase-1 bound at fig4's shape: n = 256 on the
// complete fabric (65 280 links in (From, To) order), about 10 % of them
// positive.
func BenchmarkRowColUB(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(1))
	var links []matching.Edge
	var w []int64
	for from := range n {
		for to := range n {
			if from == to {
				continue
			}
			links = append(links, matching.Edge{From: from, To: to})
			g := int64(0)
			if rng.Intn(10) == 0 {
				g = 1 + rng.Int63n(1000)
			}
			w = append(w, g)
		}
	}
	row, col := make([]int64, n), make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rowColUB(links, w, row, col)
	}
}
