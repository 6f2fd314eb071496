package matching

import "math"

const inf = math.MaxInt64 / 4

// MaxWeightBipartite returns an exact maximum-weight matching of the
// bipartite graph with n output-port nodes and n input-port nodes, together
// with its total weight. Edges with non-positive weight never appear in the
// result, so the matching is free to leave nodes unmatched.
//
// The implementation is the classic Hungarian algorithm with potentials
// (Jonker-Volgenant style shortest augmenting paths, one row insertion at a
// time from zero duals) on a dense matrix over only the nodes incident to a
// positive-weight edge: O(k^3) time for k active nodes in the worst case,
// though a round relaxes only the cells that can change — on sparse or
// heavily tied instances a row's positive columns — and takes its minimum
// over blocks of columns (Arena.insertRow). It stands in for the OR-Tools
// linear-assignment solver the paper used; both compute the same optimum.
// Among equal-weight optima the result is fixed by the input: rows and
// columns are numbered in first-appearance order and every comparison keeps
// the lower-numbered column on ties, exactly as the textbook loop would
// (DESIGN.md §13.1; exact_ref_test.go holds that loop and the comparison).
// Hot-path callers should prefer Arena.MaxWeightBipartite, which holds the
// implementation and recycles the matrix and potential arrays across calls.
func MaxWeightBipartite(n int, edges []Edge) ([]Edge, int64) {
	var a Arena
	return a.MaxWeightBipartite(n, edges)
}
