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

// BruteForceBipartite returns an exact maximum-weight bipartite matching by
// exhaustive search. Exponential; intended only as a test oracle for small
// instances (at most ~8 active rows).
func BruteForceBipartite(n int, edges []Edge) ([]Edge, int64) {
	byFrom := make(map[int][]Edge)
	var froms []int
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		if _, ok := byFrom[e.From]; !ok {
			froms = append(froms, e.From)
		}
		byFrom[e.From] = append(byFrom[e.From], e)
	}
	usedTo := make(map[int]bool)
	var best int64
	var bestSet []Edge
	var cur []Edge
	var rec func(idx int, sum int64)
	rec = func(idx int, sum int64) {
		if idx == len(froms) {
			if sum > best {
				best = sum
				bestSet = append([]Edge(nil), cur...)
			}
			return
		}
		rec(idx+1, sum) // leave froms[idx] unmatched
		for _, e := range byFrom[froms[idx]] {
			if usedTo[e.To] {
				continue
			}
			usedTo[e.To] = true
			cur = append(cur, e)
			rec(idx+1, sum+e.Weight)
			cur = cur[:len(cur)-1]
			usedTo[e.To] = false
		}
	}
	rec(0, 0)
	return bestSet, best
}
