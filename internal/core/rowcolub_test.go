package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

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

// TestPortBoundProperty: on random multi-route loads, at every iteration of
// a plan, the per-port bound of each candidate α is at least rowColUB of α's
// column and at least the weight of its maximum-weight matching, and the
// sweep equals the direct sum Σ min(α·B, T) over the From and over the To
// ports, B and T read off each link's queue walk (naiveGValue): its first
// packet's weight and its whole benefit. ε 0, 4 and 64, Octopus+
// backtracking on and off, greedy and exact plans.
func TestPortBoundProperty(t *testing.T) {
	for _, eps := range []int{0, 4, 64} {
		for _, noBT := range []bool{false, true} {
			for _, m := range []Matcher{MatcherExact, MatcherGreedy} {
				var checked int
				f := func(seed int64) bool {
					g, load := randomSmallLoad(seed)
					if len(load.Flows) == 0 {
						return true
					}
					s, err := New(g, load, Options{Window: 200, Delta: 6, Epsilon64: eps, MultiRoute: true, DisableBacktrack: noBT, Matcher: m})
					if err != nil {
						t.Log(err)
						return false
					}
					n, ref := g.N(), &evalScratch{row: make([]int64, g.N()), col: make([]int64, g.N())}
					for ok := true; ok; {
						b, tt := make([]int64, 2*n), make([]int64, 2*n)
						for _, ls := range s.tr.activeStates() {
							if gv := naiveGValue(s.tr, ls); len(gv) > 1 {
								for _, v := range []int{ls.edge.From, n + ls.edge.To} {
									b[v], tt[v] = max(b[v], gv[1]), max(tt[v], gv[len(gv)-1])
								}
							}
						}
						as := slices.Clone(s.tr.candidateAlphas(s.opt.Window - s.used - s.opt.Delta))
						bound := s.portBounds(as)
						for i, a := range as {
							var sums [2]int64
							for v := range 2 * n {
								sums[v/n] += min(int64(a)*b[v], tt[v])
							}
							we := gPrime(s.tr, a)
							ws := make([]int64, len(we))
							for k, e := range we {
								ws[k] = e.Weight
							}
							ub := rowColUB(we, ws, ref.row, ref.col)
							_, mw := ref.arena.MaxWeightBipartite(n, we)
							if bound[i] != min(sums[0], sums[1]) || bound[i] < ub || bound[i] < mw {
								t.Logf("seed %d, α %d: bound %d, direct sum %d, rowColUB %d, matching %d", seed, a, bound[i], min(sums[0], sums[1]), ub, mw)
								return false
							}
							checked++
						}
						if _, ok, err = s.Step(); err != nil {
							t.Log(err)
							return false
						}
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
					t.Fatalf("ε %d, backtracking off %v, matcher %d: %v", eps, noBT, m, err)
				}
				if checked == 0 {
					t.Fatalf("ε %d, backtracking off %v, matcher %d: no α checked", eps, noBT, m)
				}
			}
		}
	}
}
