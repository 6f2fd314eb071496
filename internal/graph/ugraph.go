package graph

import (
	"cmp"
	"slices"
)

// UEdge is an undirected edge between nodes A and B, stored with A < B.
type UEdge struct {
	A, B int
}

// NormUEdge returns the undirected edge {a, b} in canonical (A < B) form.
func NormUEdge(a, b int) UEdge {
	if a > b {
		a, b = b, a
	}
	return UEdge{a, b}
}

// Ugraph is a general undirected graph over nodes 0..N()-1, modeling
// networks with bidirectional (full-duplex) links per the paper's §7. Valid
// configurations of such a network are matchings of the Ugraph.
type Ugraph struct {
	n   int
	has map[UEdge]bool
	m   int
}

// NewU returns an empty undirected graph over n nodes.
func NewU(n int) *Ugraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Ugraph{n: n, has: make(map[UEdge]bool)}
}

// N returns the number of nodes.
func (g *Ugraph) N() int { return g.n }

// M returns the number of edges.
func (g *Ugraph) M() int { return g.m }

// AddEdge inserts the undirected edge {a, b}. Self-loops are rejected;
// re-adding an edge is a no-op.
func (g *Ugraph) AddEdge(a, b int) {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic("graph: node out of range")
	}
	if a == b {
		panic("graph: self-loop")
	}
	e := NormUEdge(a, b)
	if g.has[e] {
		return
	}
	g.has[e] = true
	g.m++
}

// HasEdge reports whether the undirected edge {a, b} exists.
func (g *Ugraph) HasEdge(a, b int) bool { return g.has[NormUEdge(a, b)] }

// Edges returns all edges sorted by (A, B).
func (g *Ugraph) Edges() []UEdge {
	es := make([]UEdge, 0, g.m)
	for e := range g.has {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b UEdge) int { return cmp.Or(a.A-b.A, a.B-b.B) })
	return es
}

// Directed returns the directed view of g: each undirected edge {a, b}
// becomes the two directed edges (a, b) and (b, a). A matching of g maps to
// a set of bidirectional active links; the simulate package uses the
// directed view to move packets in both directions.
func (g *Ugraph) Directed() *Digraph {
	d := New(g.n)
	for e := range g.has {
		d.AddEdge(e.A, e.B)
		d.AddEdge(e.B, e.A)
	}
	return d
}
