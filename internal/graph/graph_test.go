package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if g.HasEdge(0, 1) {
		t.Fatal("empty graph has an edge")
	}
	if len(g.Edges()) != 0 {
		t.Fatal("empty graph returned edges")
	}
}

func TestAddEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(3, 1)
	g.AddEdge(0, 1) // duplicate: no-op
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge presence wrong")
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Out(0) = %v", got)
	}
	if got := g.In(1); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("In(1) = %v", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(3)
	mustPanic(t, func() { g.AddEdge(1, 1) })
	mustPanic(t, func() { g.AddEdge(-1, 0) })
	mustPanic(t, func() { g.AddEdge(0, 3) })
	mustPanic(t, func() { New(-1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := Complete(3)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) {
		t.Fatal("out-of-range HasEdge returned true")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(4)
	if g.M() != 12 {
		t.Fatalf("M = %d, want 12", g.M())
	}
	for i := 0; i < 4; i++ {
		if g.HasEdge(i, i) {
			t.Fatal("self-loop in complete graph")
		}
		if len(g.Out(i)) != 3 || len(g.In(i)) != 3 {
			t.Fatalf("degree of %d wrong", i)
		}
	}
}

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.M() != 5 {
		t.Fatalf("M = %d, want 5", g.M())
	}
	for i := 0; i < 5; i++ {
		if !g.HasEdge(i, (i+1)%5) {
			t.Fatalf("missing ring edge %d", i)
		}
	}
}

func TestRandomPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomPartial(20, 4, rng)
	for i := 0; i < 20; i++ {
		if len(g.Out(i)) != 4 {
			t.Fatalf("node %d out-degree %d, want 4", i, len(g.Out(i)))
		}
		if !g.HasEdge(i, (i+1)%20) {
			t.Fatalf("ring edge %d missing (connectivity)", i)
		}
	}
	// Degree clamping.
	g2 := RandomPartial(4, 100, rng)
	for i := 0; i < 4; i++ {
		if len(g2.Out(i)) != 3 {
			t.Fatalf("clamped degree = %d, want 3", len(g2.Out(i)))
		}
	}
}

func TestTorus(t *testing.T) {
	g := Torus(3, 4)
	if g.N() != 12 || g.M() != 24 {
		t.Fatalf("n=%d m=%d, want 12, 24", g.N(), g.M())
	}
	// Node (0,0)=0 links east to (0,1)=1 and south to (1,0)=4.
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) {
		t.Fatal("missing torus edges")
	}
	// Wraparound: (0,3)=3 east to (0,0)=0; (2,1)=9 south to (0,1)=1.
	if !g.HasEdge(3, 0) || !g.HasEdge(9, 1) {
		t.Fatal("missing wraparound edges")
	}
	// Every node is reachable from 0 within MaxRouteLen on this size.
	for dst := 1; dst < 12; dst++ {
		if _, ok := shortestReach(g, 0, dst); !ok {
			t.Fatalf("node %d unreachable", dst)
		}
	}
	// Degenerate dimensions.
	if Torus(1, 1).M() != 0 {
		t.Fatal("1x1 torus has edges")
	}
	mustPanic(t, func() { Torus(0, 3) })
}

// shortestReach is a tiny BFS used by topology tests.
func shortestReach(g *Digraph, src, dst int) (int, bool) {
	dist := map[int]int{src: 0}
	queue := []int{src}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if u == dst {
			return dist[u], true
		}
		for _, v := range g.Out(u) {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return 0, false
}

func TestChordRing(t *testing.T) {
	g := ChordRing(16, 2, 4, 8)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(0, 4) || !g.HasEdge(0, 8) {
		t.Fatal("missing chord edges")
	}
	if g.M() != 16*4 {
		t.Fatalf("M = %d, want 64", g.M())
	}
	// Skip links shrink the diameter: 0 -> 15 within 5 hops.
	if d, ok := shortestReach(g, 0, 15); !ok || d > 5 {
		t.Fatalf("0->15 distance %d %v", d, ok)
	}
	// Invalid strides are ignored.
	if ChordRing(5, 0, 1, 5, 9).M() != 5 {
		t.Fatal("invalid strides added edges")
	}
}

func TestIsRoute(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	cases := []struct {
		route []int
		want  bool
	}{
		{[]int{0, 1, 2, 3}, true},
		{[]int{0, 1}, true},
		{[]int{0, 2}, false},    // missing edge
		{[]int{0}, false},       // too short
		{nil, false},            // empty
		{[]int{0, 1, 0}, false}, // repeated node
		{[]int{0, 1, 7}, false}, // out of range
		{[]int{3, 2, 1}, false}, // wrong direction
		{[]int{0, 1, 2}, true},
	}
	for _, c := range cases {
		if got := g.IsRoute(c.route); got != c.want {
			t.Errorf("IsRoute(%v) = %v, want %v", c.route, got, c.want)
		}
	}
}

func TestIsMatching(t *testing.T) {
	g := Complete(4)
	if !g.IsMatching([]Edge{{0, 1}, {1, 2}, {2, 3}}) {
		t.Fatal("valid matching rejected")
	}
	if g.IsMatching([]Edge{{0, 1}, {0, 2}}) {
		t.Fatal("duplicate source accepted")
	}
	if g.IsMatching([]Edge{{0, 1}, {2, 1}}) {
		t.Fatal("duplicate destination accepted")
	}
	if g.IsMatching([]Edge{{0, 1}, {0, 1}}) {
		t.Fatal("duplicate edge accepted")
	}
	sparse := New(4)
	sparse.AddEdge(0, 1)
	if sparse.IsMatching([]Edge{{1, 2}}) {
		t.Fatal("nonexistent edge accepted")
	}
	if !g.IsMatching(nil) {
		t.Fatal("empty matching rejected")
	}
}

func TestIsRegular(t *testing.T) {
	g := Complete(4)
	links := []Edge{{0, 1}, {0, 2}, {1, 0}, {1, 2}}
	if !g.IsRegular(links, 2) {
		t.Fatal("valid 2-regular configuration rejected")
	}
	if g.IsRegular(links, 1) {
		t.Fatal("2-regular configuration accepted as matching")
	}
	if g.IsRegular([]Edge{{0, 1}, {0, 2}, {0, 3}}, 2) {
		t.Fatal("out-degree 3 accepted at r=2")
	}
}

// mapIsRegular is IsRegular as it was written with maps: the oracle of
// TestIsRegularEqualsMapOracle.
func mapIsRegular(g *Digraph, links []Edge, r int) bool {
	outDeg, inDeg, dup := map[int]int{}, map[int]int{}, map[Edge]bool{}
	for _, e := range links {
		if !g.HasEdge(e.From, e.To) || dup[e] {
			return false
		}
		dup[e] = true
		outDeg[e.From]++
		inDeg[e.To]++
		if outDeg[e.From] > r || inDeg[e.To] > r {
			return false
		}
	}
	return true
}

// TestIsRegularEqualsMapOracle: the degree-slice check accepts exactly the
// link sets the map version accepts, at r = 1, 2 and 3, on random sets of a
// sparse fabric with missing edges, out-of-range nodes, duplicates and
// over-degree nodes among them.
func TestIsRegularEqualsMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted := [4]int{}
	for trial := 0; trial < 20000; trial++ {
		n := 2 + rng.Intn(7)
		g := New(n)
		for k := 0; k < 2*n; k++ {
			if i, j := rng.Intn(n), rng.Intn(n); i != j {
				g.AddEdge(i, j)
			}
		}
		edges := g.Edges()
		var links []Edge
		for k := rng.Intn(2 * n); k > 0; k-- {
			switch {
			case len(edges) == 0 || rng.Intn(12) == 0: // perhaps no edge of g, perhaps off the fabric
				links = append(links, Edge{rng.Intn(n+1) - rng.Intn(2), rng.Intn(n + 1)})
			case len(links) > 0 && rng.Intn(6) == 0:
				links = append(links, links[rng.Intn(len(links))])
			default:
				links = append(links, edges[rng.Intn(len(edges))])
			}
		}
		for r := 1; r <= 3; r++ {
			got, want := g.IsRegular(links, r), mapIsRegular(g, links, r)
			if got != want {
				t.Fatalf("trial %d: IsRegular(%v, %d) = %v on %v, the map version %v", trial, links, r, got, edges, want)
			}
			if got {
				accepted[r]++
			}
		}
	}
	for r := 1; r <= 3; r++ {
		if accepted[r] == 0 || accepted[r] == 20000 {
			t.Errorf("r = %d: %d of 20000 sets accepted, want both outcomes", r, accepted[r])
		}
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 0)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 3}, {3, 0}}
	if len(es) != len(want) {
		t.Fatalf("Edges() = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

// Property: Out/In adjacency and the has-bitmap always agree.
func TestAdjacencyConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		for k := 0; k < 3*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				g.AddEdge(i, j)
			}
		}
		count := 0
		for i := 0; i < n; i++ {
			for _, j := range g.Out(i) {
				if !g.HasEdge(i, j) {
					return false
				}
				count++
			}
		}
		if count != g.M() {
			return false
		}
		for j := 0; j < n; j++ {
			for _, i := range g.In(j) {
				if !g.HasEdge(i, j) {
					return false
				}
				count--
			}
		}
		return count == 0 && len(g.Edges()) == g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// IsMatching reports whether links form a matching of g: every edge exists
// and no node appears more than once as a source or as a destination.
func (g *Digraph) IsMatching(links []Edge) bool {
	return g.IsRegular(links, 1)
}
