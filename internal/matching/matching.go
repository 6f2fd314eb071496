// Package matching provides the weighted-matching substrates used by the
// Octopus scheduler: an exact maximum-weight bipartite matcher (replacing
// the Google OR-Tools linear-assignment solver used by the paper), the
// linear-time greedy 2-approximate matcher that powers Octopus-G, and
// matchers for general (non-bipartite) graphs used by the bidirectional
// network model of the paper's §7.
//
// Weights are non-negative int64 values; the core package encodes the
// paper's fractional packet weights exactly as scaled integers. All matchers
// return only edges with strictly positive weight, so the returned edge set
// is always a valid configuration matching of the underlying fabric.
package matching

// Edge is a weighted directed candidate link in a bipartite graph between
// output ports (From) and input ports (To).
type Edge struct {
	From, To int
	Weight   int64
}

// UEdge is a weighted undirected candidate link in a general graph.
type UEdge struct {
	A, B   int
	Weight int64
}

// Weight sums the weights of a set of edges.
func Weight(edges []Edge) int64 {
	var w int64
	for _, e := range edges {
		w += e.Weight
	}
	return w
}

// UWeight sums the weights of a set of undirected edges.
func UWeight(edges []UEdge) int64 {
	var w int64
	for _, e := range edges {
		w += e.Weight
	}
	return w
}
