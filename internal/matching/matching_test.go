package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randBipartite(rng *rand.Rand, n, maxW int) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(2) == 0 {
				edges = append(edges, Edge{i, j, int64(rng.Intn(maxW + 1))})
			}
		}
	}
	return edges
}

func isBipartiteMatching(n int, m []Edge) bool {
	from := make([]bool, n)
	to := make([]bool, n)
	for _, e := range m {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return false
		}
		if from[e.From] || to[e.To] {
			return false
		}
		from[e.From] = true
		to[e.To] = true
	}
	return true
}

func TestMaxWeightBipartiteSimple(t *testing.T) {
	// 2x2: picking the diagonal (5+5) beats the single heavy edge (7).
	edges := []Edge{{0, 0, 5}, {0, 1, 7}, {1, 1, 5}}
	m, w := new(Arena).MaxWeightBipartite(2, edges)
	if w != 10 || len(m) != 2 {
		t.Fatalf("got w=%d m=%v, want 10 with 2 edges", w, m)
	}
}

func TestMaxWeightBipartiteEmpty(t *testing.T) {
	if m, w := new(Arena).MaxWeightBipartite(3, nil); m != nil || w != 0 {
		t.Fatalf("empty instance: got %v %d", m, w)
	}
	if m, w := new(Arena).MaxWeightBipartite(3, []Edge{{0, 1, 0}, {1, 2, -4}}); m != nil || w != 0 {
		t.Fatalf("non-positive weights: got %v %d", m, w)
	}
}

func TestMaxWeightBipartiteDuplicateEdges(t *testing.T) {
	edges := []Edge{{0, 1, 3}, {0, 1, 9}, {0, 1, 5}}
	m, w := new(Arena).MaxWeightBipartite(2, edges)
	if w != 9 || len(m) != 1 || m[0].Weight != 9 {
		t.Fatalf("duplicates: got %v %d", m, w)
	}
}

func TestMaxWeightBipartiteRectangular(t *testing.T) {
	// More active rows than columns forces column padding.
	edges := []Edge{{0, 5, 4}, {1, 5, 9}, {2, 5, 2}}
	m, w := new(Arena).MaxWeightBipartite(6, edges)
	if w != 9 || len(m) != 1 || m[0] != (Edge{1, 5, 9}) {
		t.Fatalf("got %v %d", m, w)
	}
}

func TestMaxWeightBipartiteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5)
		edges := randBipartite(rng, n, 20)
		m, w := new(Arena).MaxWeightBipartite(n, edges)
		_, bw := BruteForceBipartite(n, edges)
		if w != bw {
			t.Fatalf("trial %d: hungarian=%d brute=%d edges=%v", trial, w, bw, edges)
		}
		if !isBipartiteMatching(n, m) {
			t.Fatalf("trial %d: invalid matching %v", trial, m)
		}
		if Weight(m) != w {
			t.Fatalf("trial %d: reported weight %d != edge sum %d", trial, w, Weight(m))
		}
	}
}

func TestGreedyBipartiteHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		edges := randBipartite(rng, n, 50)
		gm, gw := new(Arena).GreedyBipartite(n, edges)
		_, ow := new(Arena).MaxWeightBipartite(n, edges)
		if !isBipartiteMatching(n, gm) {
			t.Fatalf("greedy produced invalid matching %v", gm)
		}
		if gw > ow {
			t.Fatalf("greedy weight %d exceeds optimum %d", gw, ow)
		}
		if 2*gw < ow {
			t.Fatalf("greedy weight %d below half of optimum %d", gw, ow)
		}
	}
}

func TestGreedyBipartiteDeterministic(t *testing.T) {
	edges := []Edge{{0, 0, 5}, {0, 1, 5}, {1, 0, 5}, {1, 1, 5}}
	m1, _ := new(Arena).GreedyBipartite(2, edges)
	m2, _ := new(Arena).GreedyBipartite(2, append([]Edge(nil), edges...))
	if len(m1) != len(m2) {
		t.Fatal("nondeterministic size")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("nondeterministic result: %v vs %v", m1, m2)
		}
	}
	// Among equal weights the lower index goes first: (0,0), then (1,1).
	if m1[0] != (Edge{0, 0, 5}) || m1[1] != (Edge{1, 1, 5}) {
		t.Fatalf("unexpected tie-break: %v", m1)
	}
}

// Property: on permutation-structured instances (disjoint positive edges)
// greedy is exactly optimal.
func TestGreedyExactOnDisjointEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		perm := rng.Perm(n)
		var edges []Edge
		var want int64
		for i, j := range perm {
			w := int64(1 + rng.Intn(100))
			edges = append(edges, Edge{i, j, w})
			want += w
		}
		_, gw := new(Arena).GreedyBipartite(n, edges)
		_, ow := new(Arena).MaxWeightBipartite(n, edges)
		return gw == want && ow == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hungarian weight is invariant under edge order permutation.
func TestHungarianOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5)
		edges := randBipartite(rng, n, 40)
		_, w1 := new(Arena).MaxWeightBipartite(n, edges)
		shuffled := append([]Edge(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		_, w2 := new(Arena).MaxWeightBipartite(n, shuffled)
		if w1 != w2 {
			t.Fatalf("order-dependent optimum: %d vs %d", w1, w2)
		}
	}
}

func TestWeightHelpers(t *testing.T) {
	if Weight([]Edge{{0, 1, 3}, {1, 2, 4}}) != 7 {
		t.Fatal("Weight sum wrong")
	}
	if Weight(nil) != 0 {
		t.Fatal("empty sums nonzero")
	}
}

func TestHungarianLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(5))
	n := 120
	edges := randBipartite(rng, n, 1000)
	m, w := new(Arena).MaxWeightBipartite(n, edges)
	if !isBipartiteMatching(n, m) {
		t.Fatal("invalid matching at n=120")
	}
	_, gw := new(Arena).GreedyBipartite(n, edges)
	if gw > w {
		t.Fatalf("greedy %d beat exact %d", gw, w)
	}
	if 2*gw < w {
		t.Fatalf("greedy %d below half of exact %d", gw, w)
	}
}
