package matching

import (
	"cmp"
	"slices"
)

// GreedyGeneral returns a greedy maximal matching of a general undirected
// graph: repeatedly take the heaviest remaining edge with both endpoints
// free. This is the 1/2-approximate matcher used for the bidirectional
// network model (paper §7); the paper's suggested exact general-graph
// matcher [Gabow-Tarjan] is substituted by this approximation plus the
// AugmentGeneral improvement pass, documented in DESIGN.md.
func GreedyGeneral(n int, edges []UEdge) ([]UEdge, int64) {
	pos := make([]UEdge, 0, len(edges))
	for _, e := range edges {
		if e.Weight > 0 {
			pos = append(pos, e)
		}
	}
	slices.SortFunc(pos, func(a, b UEdge) int { return cmp.Or(cmp.Compare(b.Weight, a.Weight), a.A-b.A, a.B-b.B) })
	used := make([]bool, n)
	var m []UEdge
	var total int64
	for _, e := range pos {
		if used[e.A] || used[e.B] {
			continue
		}
		used[e.A] = true
		used[e.B] = true
		m = append(m, e)
		total += e.Weight
	}
	return m, total
}

// AugmentGeneral improves a matching by repeated 1-for-2 local swaps:
// replace one matched edge by two currently-free edges adjacent to its
// endpoints whenever that increases total weight. It preserves matching
// validity and never decreases weight. Returns the improved matching and
// weight.
func AugmentGeneral(n int, edges []UEdge, m []UEdge) ([]UEdge, int64) {
	matchOf := make([]int, n) // index into cur, or -1
	for i := range matchOf {
		matchOf[i] = -1
	}
	cur := append([]UEdge(nil), m...)
	for i, e := range cur {
		matchOf[e.A] = i
		matchOf[e.B] = i
	}
	// Adjacency of candidate edges per node.
	adj := make([][]UEdge, n)
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		adj[e.A] = append(adj[e.A], e)
		adj[e.B] = append(adj[e.B], e)
	}
	free := func(v int) bool { return matchOf[v] == -1 }
	other := func(e UEdge, v int) int {
		if e.A == v {
			return e.B
		}
		return e.A
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(cur); i++ {
			e := cur[i]
			// Try to replace e=(a,b) with (a,x) and (b,y), x,y free and distinct.
			var bestGain int64
			var ea, eb UEdge
			var found bool
			for _, ca := range adj[e.A] {
				x := other(ca, e.A)
				if x == e.B || !free(x) {
					continue
				}
				for _, cb := range adj[e.B] {
					y := other(cb, e.B)
					if y == e.A || y == x || !free(y) {
						continue
					}
					gain := ca.Weight + cb.Weight - e.Weight
					if gain > bestGain {
						bestGain, ea, eb, found = gain, ca, cb, true
					}
				}
			}
			if !found {
				continue
			}
			// Apply the swap.
			matchOf[e.A] = -1
			matchOf[e.B] = -1
			cur[i] = ea
			matchOf[ea.A] = i
			matchOf[ea.B] = i
			cur = append(cur, eb)
			matchOf[eb.A] = len(cur) - 1
			matchOf[eb.B] = len(cur) - 1
			improved = true
		}
	}
	return cur, UWeight(cur)
}
