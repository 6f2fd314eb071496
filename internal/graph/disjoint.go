// Edge-disjoint route extraction for proactive redundancy provisioning.
//
// DisjointRoutes finds up to k pairwise edge-disjoint src→dst paths with the
// Bhandari variant of Suurballe's successive-shortest-paths algorithm: each
// augmentation finds a shortest path in a residual graph where edges already
// used by earlier paths are removed and replaced by reverse edges of weight
// −1, so a later path may "cancel" part of an earlier one and the union of
// used edges always decomposes into edge-disjoint paths of minimum total
// length. Everything is deterministic: relaxations scan nodes and neighbors
// in ascending order, only strict improvements update, and the final
// decomposition always follows the smallest-numbered available edge.
package graph

import (
	"cmp"
	"slices"
	"sort"
)

// unreachable is the Bellman-Ford infinity; hop counts never approach it.
const unreachable = int(1e9)

// redge is one residual edge out of a node during an augmentation.
type redge struct {
	to int
	w  int // +1 for an unused fabric edge, −1 for cancelling a used edge
}

// DisjointRoutes returns up to k pairwise edge-disjoint paths from src to
// dst in g, each as a node sequence, each a simple path of at most maxHops
// hops (maxHops <= 0 leaves route length unbounded). The paths minimize
// total hop count before the per-route bound is applied; routes exceeding
// the bound are dropped from the result. The result is deterministic and
// sorted by (hops, node sequence). Returns nil when src == dst, k <= 0, or
// no path exists.
func DisjointRoutes(g *Digraph, src, dst, k, maxHops int) [][]int {
	g.checkNode(src)
	g.checkNode(dst)
	if src == dst || k <= 0 {
		return nil
	}
	used := make(map[Edge]bool)
	found := 0
	for found < k {
		par, ok := residualShortest(g, used, src, dst)
		if !ok {
			break
		}
		// XOR the augmenting path into the used set: traversing the
		// reverse of a used edge cancels it, anything else becomes used.
		steps := 0
		for v := dst; v != src; v = par[v] {
			u := par[v]
			if used[Edge{From: v, To: u}] {
				delete(used, Edge{From: v, To: u})
			} else {
				used[Edge{From: u, To: v}] = true
			}
			if steps++; steps > g.n {
				// Defensive: a parent cycle would mean the relaxation
				// admitted a negative cycle, which the residual construction
				// excludes. Stop augmenting rather than loop forever.
				return decompose(used, src, dst, found, maxHops)
			}
		}
		found++
	}
	return decompose(used, src, dst, found, maxHops)
}

// residualShortest runs a deterministic Bellman-Ford over the residual
// graph of (g, used) and returns the parent pointers of a shortest src→dst
// path, or ok=false when dst is unreachable.
func residualShortest(g *Digraph, used map[Edge]bool, src, dst int) (par []int, ok bool) {
	n := g.n
	// cancel[a] lists nodes u with a used edge u→a, i.e. residual edges
	// a→u of weight −1.
	cancel := make([][]int, n)
	for e := range used {
		cancel[e.To] = append(cancel[e.To], e.From)
	}
	adj := make([][]redge, n)
	for a := 0; a < n; a++ {
		sort.Ints(cancel[a])
		neg := make(map[int]bool, len(cancel[a]))
		for _, u := range cancel[a] {
			neg[u] = true
			adj[a] = append(adj[a], redge{to: u, w: -1})
		}
		for _, b := range g.out[a] {
			// A cancellation edge to the same node dominates (−1 < +1), so
			// the parallel fabric edge never improves a relaxation.
			if neg[b] || used[Edge{From: a, To: b}] {
				continue
			}
			adj[a] = append(adj[a], redge{to: b, w: 1})
		}
	}
	dist := make([]int, n)
	par = make([]int, n)
	for i := range dist {
		dist[i] = unreachable
		par[i] = -1
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for a := 0; a < n; a++ {
			if dist[a] >= unreachable {
				continue
			}
			for _, e := range adj[a] {
				if nd := dist[a] + e.w; nd < dist[e.to] {
					dist[e.to] = nd
					par[e.to] = a
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	if dist[dst] >= unreachable {
		return nil, false
	}
	return par, true
}

// decompose splits the used-edge set into count edge-disjoint simple paths
// from src to dst. Each walk follows the smallest-numbered available edge;
// when a walk revisits a node it has already passed, the closed loop in
// between is spliced out (removing a cycle keeps the remaining edge set
// decomposable and only shortens the path). Paths longer than maxHops are
// dropped; the survivors are sorted by (hops, node sequence).
func decompose(used map[Edge]bool, src, dst, count, maxHops int) [][]int {
	if count == 0 {
		return nil
	}
	avail := make(map[int][]int, len(used))
	for e := range used {
		avail[e.From] = append(avail[e.From], e.To)
	}
	for a := range avail {
		sort.Ints(avail[a])
	}
	var paths [][]int
	for p := 0; p < count; p++ {
		seq := []int{src}
		pos := map[int]int{src: 0}
		cur := src
		for cur != dst {
			nexts := avail[cur]
			if len(nexts) == 0 {
				seq = nil // defensive: unbalanced degree, abandon this walk
				break
			}
			b := nexts[0]
			avail[cur] = nexts[1:]
			if j, ok := pos[b]; ok {
				for _, v := range seq[j+1:] {
					delete(pos, v)
				}
				seq = seq[:j+1]
			} else {
				seq = append(seq, b)
				pos[b] = len(seq) - 1
			}
			cur = b
		}
		if len(seq) >= 2 && (maxHops <= 0 || len(seq)-1 <= maxHops) {
			paths = append(paths, seq)
		}
	}
	slices.SortFunc(paths, func(a, b []int) int { return cmp.Or(len(a)-len(b), slices.Compare(a, b)) })
	return paths
}
