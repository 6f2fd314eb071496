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

import "math/bits"

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

// GreedyBipartite returns a greedy maximal matching built by repeatedly
// taking the heaviest remaining edge whose endpoints are both free. It is a
// classic 1/2-approximation of the maximum-weight matching [Avis '83] and is
// the matcher behind the Octopus-G variant (paper §8, "Execution Time").
// Edges with non-positive weight are ignored. Runs in O(E) plus the radix
// sort of the edge weights. Hot-path callers should prefer Arena.
// GreedyBipartite, which recycles the working buffers across calls, or
// Arena.GreedyColumn, which also carries the sorted order between calls.
func GreedyBipartite(n int, edges []Edge) ([]Edge, int64) {
	var a Arena
	return a.GreedyBipartite(n, edges)
}

// wlink is a link in the greedy order: its weight and its index in the
// caller's list, both full width, so nothing checkOptions admits is truncated.
type wlink struct {
	w    int64
	link int
}

// before is the greedy order: heavier first, the lower index among equals.
func (x wlink) before(y wlink) bool {
	return x.w > y.w || x.w == y.w && x.link < y.link
}

// radixSmall is the link count below which radixSort uses 8-bit digits:
// under it a pass is dominated by clearing and prefix-summing the buckets,
// not by moving links, and 256 buckets cost an eighth of 2048.
const radixSmall = 1024

// radixSort sorts links by weight descending using a stable LSD radix sort
// on the (positive) weights. Because the sort is stable, links passed in
// index order come out in wlink.before order. This is the "incredibly
// simple" linear-time path the paper highlights for integer weights bounded
// by W. The passes are sized to the input: digits are 8 bits wide below
// radixSmall links and 11 from there on, they start at the lowest bit set in
// any weight (scaled weights share their low zero bits), and a pass whose
// digit is the same on every link is skipped — none of which changes the
// order. buf is caller-owned ping-pong storage with len(buf) == len(links);
// its final contents are unspecified.
func radixSort(links, buf []wlink) {
	if len(links) < 2 {
		return
	}
	// The buckets live on the stack; declaring each array in its own branch
	// keeps a small sort from zeroing the large one.
	if len(links) < radixSmall {
		var count [1 << 8]int
		radixPasses(links, buf, count[:], 8)
	} else {
		var count [1 << 11]int
		radixPasses(links, buf, count[:], 11)
	}
}

// radixPasses is radixSort with the digit width chosen: count has
// 1<<width zeroed buckets.
func radixPasses(links, buf []wlink, count []int, width uint) {
	var or int64
	for _, e := range links {
		or |= e.w
	}
	mask := int64(len(count) - 1)
	src, dst := links, buf
	for shift := uint(bits.TrailingZeros64(uint64(or))); or>>shift > 0; shift += width {
		for _, e := range src {
			count[(e.w>>shift)&mask]++
		}
		if count[(src[0].w>>shift)&mask] == len(src) {
			count[(src[0].w>>shift)&mask] = 0
			continue // one digit throughout: the pass would move nothing
		}
		// Descending order: bucket for the largest key first.
		sum := 0
		for b := len(count) - 1; b >= 0; b-- {
			c := count[b]
			count[b] = sum
			sum += c
		}
		for _, e := range src {
			b := (e.w >> shift) & mask
			dst[count[b]] = e
			count[b]++
		}
		clear(count)
		src, dst = dst, src
	}
	// Stability makes each pass preserve the order established by less
	// significant digits, so running every pass with descending buckets
	// yields a descending sort overall.
	if &src[0] != &links[0] {
		copy(links, src)
	}
}
