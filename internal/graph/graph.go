// Package graph models circuit-switched network fabrics.
//
// The primary type is Digraph: a directed graph over n network nodes where an
// edge (i, j) means the output port of node i can be connected, through the
// circuit fabric, to the input port of node j. A set of links that is
// simultaneously active must form a matching of this graph (at most one
// active out-edge and one active in-edge per node); the schedule and simulate
// packages enforce that invariant.
package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// Edge is a directed potential link from the output port of From to the
// input port of To.
type Edge struct {
	From, To int
}

// String returns the edge in "from->to" form.
func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// Digraph is a directed graph over nodes 0..N()-1 representing a circuit
// fabric. The zero value is an empty graph with no nodes; use New to create
// a graph with a given node count.
type Digraph struct {
	n   int
	out [][]int // out[i] = sorted list of j with edge (i, j)
	in  [][]int // in[j] = sorted list of i with edge (i, j)
	ids []int32 // ids[i*n+j] = LinkID(i, j)+1, 0 when the edge is absent
	m   int     // number of edges
}

// New returns an empty directed graph over n nodes.
func New(n int) *Digraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Digraph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
		ids: make([]int32, n*n),
	}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the directed edge (from, to). Self-loops are rejected
// because a circuit from a node to itself is meaningless. Adding an existing
// edge is a no-op.
func (g *Digraph) AddEdge(from, to int) {
	g.checkNode(from)
	g.checkNode(to)
	if from == to {
		panic("graph: self-loop")
	}
	if g.ids[from*g.n+to] != 0 {
		return
	}
	g.m++
	g.ids[from*g.n+to] = int32(g.m)
	g.out[from] = insertSorted(g.out[from], to)
	g.in[to] = insertSorted(g.in[to], from)
}

// HasEdge reports whether the directed edge (from, to) exists.
func (g *Digraph) HasEdge(from, to int) bool { return g.LinkID(from, to) >= 0 }

// LinkID returns the dense id of the edge (from, to), or -1 if it does not
// exist. Ids are handed out in insertion order, cover [0, M()) and never
// change, so per-link state can live in a slice indexed by them.
func (g *Digraph) LinkID(from, to int) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return -1
	}
	return int(g.ids[from*g.n+to]) - 1
}

// Out returns the sorted out-neighbors of node i. The returned slice must
// not be modified.
func (g *Digraph) Out(i int) []int {
	g.checkNode(i)
	return g.out[i]
}

// In returns the sorted in-neighbors of node j. The returned slice must not
// be modified.
func (g *Digraph) In(j int) []int {
	g.checkNode(j)
	return g.in[j]
}

// Edges returns all edges sorted by (From, To).
func (g *Digraph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for i := 0; i < g.n; i++ {
		for _, j := range g.out[i] {
			es = append(es, Edge{i, j})
		}
	}
	return es
}

// Subgraph returns the subgraph of g over the same node set containing
// exactly the edges for which keep returns true. The fault package uses this
// to snapshot the surviving fabric after link and node failures.
func (g *Digraph) Subgraph(keep func(Edge) bool) *Digraph {
	s := New(g.n)
	for i := 0; i < g.n; i++ {
		for _, j := range g.out[i] {
			if keep(Edge{From: i, To: j}) {
				s.AddEdge(i, j)
			}
		}
	}
	return s
}

// IsRoute reports whether route (a sequence of nodes) is a valid path in g:
// at least two nodes, no repeats, and every consecutive pair is an edge.
func (g *Digraph) IsRoute(route []int) bool {
	if len(route) < 2 {
		return false
	}
	// HasEdge range-checks both ends of every hop. Real routes are a few
	// hops, so the repeat check is a scan of the prefix; only routes longer
	// than any load may carry pay for a set.
	var seen map[int]bool
	if len(route) > quadraticRouteLen {
		seen = map[int]bool{route[0]: true}
	}
	for k := 1; k < len(route); k++ {
		v := route[k]
		if !g.HasEdge(route[k-1], v) {
			return false
		}
		if seen != nil {
			if seen[v] {
				return false
			}
			seen[v] = true
			continue
		}
		for _, u := range route[:k] {
			if u == v {
				return false
			}
		}
	}
	return true
}

// quadraticRouteLen is the longest route (in nodes) IsRoute checks for
// repeats by scanning; it covers every route traffic.MaxRouteLen admits.
const quadraticRouteLen = 16

// IsRegular reports whether links form a valid r-port configuration of g:
// every edge exists, no duplicate edges, and every node appears at most r
// times as a source and at most r times as a destination. (A union of r
// edge-disjoint matchings satisfies this; see the paper's §7.)
func (g *Digraph) IsRegular(links []Edge, r int) bool {
	deg := make([]int, 2*g.n) // out-degrees, then in-degrees
	for _, e := range links {
		if !g.HasEdge(e.From, e.To) {
			return false
		}
		deg[e.From]++
		deg[g.n+e.To]++
		if deg[e.From] > r || deg[g.n+e.To] > r {
			return false
		}
	}
	if r <= 1 {
		return true // a repeated edge repeats its source, past the bound
	}
	sorted := slices.Clone(links)
	slices.SortFunc(sorted, func(a, b Edge) int { return cmp.Or(a.From-b.From, a.To-b.To) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return false
		}
	}
	return true
}

func (g *Digraph) checkNode(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", i, g.n))
	}
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Complete returns the complete directed graph over n nodes (every ordered
// pair except self-loops). This models a single n x n crossbar switch, the
// implicit topology of prior one-hop work.
func Complete(n int) *Digraph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Ring returns the directed cycle 0->1->...->n-1->0.
func Ring(n int) *Digraph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Torus returns a directed 2D torus fabric over rows*cols nodes: node
// (r, c) links to its east and south neighbors with wraparound. A classic
// partial topology with diameter (rows+cols)/2-ish, useful for exercising
// multi-hop routing on structured fabrics.
func Torus(rows, cols int) *Digraph {
	if rows < 1 || cols < 1 {
		panic("graph: torus dimensions must be positive")
	}
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cols > 1 {
				g.AddEdge(id(r, c), id(r, (c+1)%cols))
			}
			if rows > 1 {
				g.AddEdge(id(r, c), id((r+1)%rows, c))
			}
		}
	}
	return g
}

// ChordRing returns a directed ring over n nodes augmented with skip links
// of the given strides (e.g. strides 2 and 4 add edges i->i+2 and i->i+4
// mod n), a Chord-like low-diameter partial fabric.
func ChordRing(n int, strides ...int) *Digraph {
	g := Ring(n)
	for _, s := range strides {
		if s <= 1 || s >= n {
			continue
		}
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+s)%n)
		}
	}
	return g
}

// RandomPartial returns a strongly connected partial fabric over n nodes
// with approximately deg out-edges per node: a directed ring guaranteeing
// strong connectivity plus deg-1 extra random distinct out-edges per node.
// This models FSO-style fabrics where a complete topology is infeasible.
func RandomPartial(n, deg int, rng *rand.Rand) *Digraph {
	if deg < 1 {
		deg = 1
	}
	if deg > n-1 {
		deg = n - 1
	}
	g := Ring(n)
	for i := 0; i < n; i++ {
		for g.out[i] != nil && len(g.out[i]) < deg {
			j := rng.Intn(n)
			if j != i && !g.HasEdge(i, j) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}
