package matching

import (
	"math"
	"slices"
)

const inf = math.MaxInt64 / 4

// Arena is reusable scratch for the bipartite matchers. The Octopus greedy
// loop solves thousands of matchings per run; with a per-worker Arena the
// dense matrix, potentials, link ranges and result slices are allocated once
// and recycled, so the per-α matchings stop churning the garbage collector.
//
// An Arena is not safe for concurrent use, and the edge slice returned by
// its matcher methods aliases arena storage: it is valid only until the
// next call of the same kind on the same Arena — a greedy result outlives
// exact calls and an exact result greedy calls, their backing being
// separate (core's Octopus-B holds both).
//
// The zero Arena is ready to use.
type Arena struct {
	// Stats accumulates matcher activity across calls. The arena is
	// single-goroutine, so plain fields suffice; callers that share work
	// across arenas (core's per-worker scratch) sum the structs afterwards.
	Stats Stats

	// Greedy matcher state.
	wts      []int64    // GreedyBipartite's weights, index-aligned with its links
	runs     []fromRun  // the call's From nodes, each with its range of links
	held     []heldLink // per To node; all-zero between calls
	start    []int      // counting-sort offsets by From node
	sorted   []Edge     // positive links of a list whose From nodes do not ascend, grouped...
	sortedW  []int64    // ...their weights...
	sortedID []int      // ...and their indices in the caller's list
	outG     []Edge     // greedy result backing: the last greedy matching, kept for GreedyNext...
	byFrom   []int      // ...the link each From node holds in it (-1: none)...
	byTo     []int      // ...and each To node

	// Exact matcher state.
	rowID, colID []int // node -> compact index; -1 between calls
	rows, cols   []int // compact index -> node
	w            []int64
	u, v         []int64
	p, way       []int
	minv, bmin   []int64 // per column (inf once in the tree); minimum per block of minvBlock
	path         []int   // tree columns of the current insertion, root first
	dIn          []int64 // dIn[k]: cumulative delta when path[k] joined the tree
	posCols      []int32 // positive-weight columns (0-based), row by row...
	posW         []int64 // ...and their weights, the matrix's max for a duplicate edge
	posLo, posHi []int32 // compact row i owns posCols[posLo[i]:posHi[i]]
	outX         []Edge  // exact result backing
}

// Stats counts arena matcher activity. All fields are monotone totals
// over the arena's lifetime. Except Grows and Reuses, each depends only on
// the calls made, not on which arena saw which call, so summed over a pool of
// arenas they do not vary with its size. This package stays dependency-free:
// consumers translate these counts into whatever metrics system they use.
type Stats struct {
	GreedyCalls     int64 // greedy solves: GreedyBipartite calls and GreedyNext's fresh ones
	GreedyKept      int64 // GreedyNext calls that kept the last matching: no solve, so in none of the three below
	GreedyEdges     int64 // positive-weight edges considered by greedy solves
	GreedyMatched   int64 // edges emitted by greedy solves
	GreedyProposals int64 // deferred-acceptance proposals of greedy solves
	ExactCalls      int64 // MaxWeightBipartite invocations
	ExactRows       int64 // compacted rows solved across exact calls
	AugmentRounds   int64 // shortest-augmenting-path relaxation rounds
	FullScans       int64 // of those, rounds that relaxed a whole row (see insertRow)
	Grows           int64 // calls that grew arena storage
	Reuses          int64 // calls served entirely from existing storage
}

// AddTo accumulates s into dst field by field.
func (s Stats) AddTo(dst *Stats) {
	dst.GreedyCalls += s.GreedyCalls
	dst.GreedyKept += s.GreedyKept
	dst.GreedyEdges += s.GreedyEdges
	dst.GreedyMatched += s.GreedyMatched
	dst.GreedyProposals += s.GreedyProposals
	dst.ExactCalls += s.ExactCalls
	dst.ExactRows += s.ExactRows
	dst.AugmentRounds += s.AugmentRounds
	dst.FullScans += s.FullScans
	dst.Grows += s.Grows
	dst.Reuses += s.Reuses
}

// greedyCap sums the capacities of the greedy-side buffers; comparing it
// before and after a call detects whether the call had to grow storage.
func (a *Arena) greedyCap() int {
	return cap(a.wts) + cap(a.runs) + cap(a.held) + cap(a.start) +
		cap(a.sorted) + cap(a.sortedW) + cap(a.sortedID) + cap(a.outG) +
		cap(a.byFrom) + cap(a.byTo)
}

// countGrowth closes out one call's grow/reuse accounting, from the
// capacities of the call's buffers before and after it.
func (a *Arena) countGrowth(before, after int) {
	if after > before {
		a.Stats.Grows++
	} else {
		a.Stats.Reuses++
	}
}

// exactCap is greedyCap for the exact-matcher buffers.
func (a *Arena) exactCap() int {
	return cap(a.rowID) + cap(a.colID) + cap(a.rows) + cap(a.cols) +
		cap(a.w) + cap(a.u) + cap(a.v) + cap(a.p) + cap(a.way) +
		cap(a.minv) + cap(a.bmin) + cap(a.path) + cap(a.dIn) +
		cap(a.posCols) + cap(a.posW) + cap(a.posLo) + cap(a.posHi) + cap(a.outX)
}

// growFill returns s extended to length >= n; fresh cells are v.
func growFill[T any](s []T, n int, v T) []T {
	for len(s) < n {
		s = append(slices.Grow(s, n-len(s)), v)
	}
	return s
}

// grow returns s resized to length n, reallocating only when it must; the
// cells keep whatever an earlier call left in them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	return s[:n]
}

// GreedyBipartite returns the greedy maximal matching of the bipartite graph
// with n output-port and n input-port nodes: the positive edges taken by
// weight descending, the lower index first among equals, each kept when both
// its endpoints are still free. It is a classic 1/2-approximation of the
// maximum-weight matching [Avis '83] and the matcher behind the Octopus-G
// variant (paper §8, "Execution Time"). Edges with non-positive weight are
// ignored; the result lists the kept edges in ascending index. No sort is
// made (see greedy). The returned slice is valid until the next greedy call
// on the arena.
func (a *Arena) GreedyBipartite(n int, edges []Edge) ([]Edge, int64) {
	a.wts = grow(a.wts, len(edges))
	for i, e := range edges {
		a.wts[i] = e.Weight
	}
	return a.greedy(n, edges, a.wts)
}

// GreedyNext is GreedyBipartite on links[i] reweighted to col[i] (links' own
// Weight fields are not read): the same matching, emitted in the same order.
// prev is the column the arena's last greedy call solved the same n and links
// under; core walks its (From, To)-ordered list, read in place, through a run
// of ascending α's so. If no cell fell and every link that rose is held by the
// last matching or out-ranked by a link it holds at one of its ends, that
// matching is still the greedy one (the stability lemma, DESIGN.md §4): it is
// kept, weights read from col, with no proposal. Otherwise, or if prev is not
// col's length (as at a run's first α), it is a fresh solve.
func (a *Arena) GreedyNext(n int, links []Edge, prev, col []int64) ([]Edge, int64) {
	if len(prev) != len(col) {
		return a.greedy(n, links, col)
	}
	for i, w := range col {
		if w < prev[i] || w > prev[i] && !covers(a.byFrom[links[i].From], i, col) && !covers(a.byTo[links[i].To], i, col) {
			return a.greedy(n, links, col)
		}
	}
	var total int64
	for k, e := range a.outG {
		a.outG[k].Weight = col[a.byFrom[e.From]]
		total += a.outG[k].Weight
	}
	a.Stats.GreedyKept++
	a.Stats.Reuses++
	if len(a.outG) == 0 {
		return nil, 0
	}
	return a.outG, total
}

// covers reports whether the held link h (-1: none) is link i or precedes it
// in the greedy order under col: heavier, or as heavy and of lower index.
func covers(h, i int, col []int64) bool {
	return h >= 0 && (col[h] > col[i] || col[h] == col[i] && h <= i)
}

// fromRun is one From node's links: positions [lo, hi) of the list greedy
// scans, and the index of the link the node holds (-1: none).
type fromRun struct {
	from, lo, hi, held int
}

// heldLink is what a To node holds: a link's weight (0: nothing), its index
// in the caller's list and the run that proposed it.
type heldLink struct {
	w         int64
	link, run int
}

// greedy is deferred acceptance (Gale–Shapley; the "Suitor" algorithm of
// Manne and Halappanavar) under one strict order on the links: weight
// descending, then index ascending, weights from col. Every From node
// proposes its best positive link whose To node holds nothing better; the
// To node takes it, and the From node it displaces proposes again. Under one
// global order the stable matching is unique and is the greedy one, found
// in at most positive links + From nodes proposals (DESIGN.md §4).
//
// A From node's links are a range of positions: of links itself when its
// From nodes ascend, as core's (From, To) order does, else of a copy grouped
// by a stable counting sort; the in-place attempt is then undone and not
// counted. Within a range positions ascend with index, so a scan keeps the
// first of equal weights. The matching is retained for GreedyNext.
func (a *Arena) greedy(n int, links []Edge, col []int64) ([]Edge, int64) {
	capBefore := a.greedyCap()
	a.held = growFill(a.held, n, heldLink{})
	positive, proposals, grouped := a.accept(links, col, nil)
	if !grouped {
		for _, r := range a.runs {
			if r.held >= 0 {
				a.held[links[r.held].To] = heldLink{}
			}
		}
		a.groupBySort(n, links, col)
		positive, proposals, _ = a.accept(a.sorted, a.sortedW, a.sortedID)
		slices.SortFunc(a.runs, func(x, y fromRun) int { return x.held - y.held })
	}
	for _, e := range a.outG {
		a.byFrom[e.From], a.byTo[e.To] = -1, -1
	}
	a.byFrom, a.byTo = growFill(a.byFrom, n, -1), growFill(a.byTo, n, -1)
	m := a.outG[:0]
	var total int64
	for _, r := range a.runs {
		if r.held >= 0 {
			e := links[r.held]
			m = append(m, Edge{From: e.From, To: e.To, Weight: col[r.held]})
			a.byFrom[e.From], a.byTo[e.To] = r.held, r.held
			total += col[r.held]
			a.held[e.To] = heldLink{}
		}
	}
	a.outG = m
	a.Stats.GreedyCalls++
	a.Stats.GreedyEdges += int64(positive)
	a.Stats.GreedyMatched += int64(len(m))
	a.Stats.GreedyProposals += proposals
	a.countGrowth(capBefore, a.greedyCap())
	if len(m) == 0 {
		return nil, 0
	}
	return m, total
}

// accept runs deferred acceptance over links, weights from col, ids mapping
// positions to indices (nil: they are equal). It takes the From runs in
// order, each as it is found, and returns the positive links and proposals
// counted. It stops and reports false at a run whose From node is below the
// previous run's, leaving a.runs and the holdings of the runs so far for the
// caller to clear.
func (a *Arena) accept(links []Edge, col []int64, ids []int) (positive int, proposals int64, grouped bool) {
	held, runs := a.held, a.runs[:0]
	for lo := 0; lo < len(links); {
		u := links[lo].From
		if len(runs) > 0 && u < runs[len(runs)-1].from {
			a.runs = runs
			return positive, proposals, false
		}
		hi := lo
		for ; hi < len(links) && links[hi].From == u; hi++ {
			if col[hi] > 0 {
				positive++
			}
		}
		runs = append(runs, fromRun{from: u, lo: lo, hi: hi, held: -1})
		lo = hi
		for cur := len(runs) - 1; cur >= 0; {
			proposals++
			// cur's best link whose To node holds nothing better.
			best, bw := -1, int64(0)
			for p := runs[cur].lo; p < runs[cur].hi; p++ {
				w := col[p]
				if w <= bw {
					continue // non-positive, or no better than an earlier position
				}
				h := &held[links[p].To]
				if h.w > w {
					continue
				}
				if h.w == w {
					id := p
					if ids != nil {
						id = ids[p]
					}
					if h.link < id {
						continue
					}
				}
				best, bw = p, w
			}
			if best < 0 {
				break
			}
			id := best
			if ids != nil {
				id = ids[best]
			}
			h := &held[links[best].To]
			next := -1
			if h.w > 0 {
				next = h.run
				runs[next].held = -1
			}
			*h = heldLink{w: bw, link: id, run: cur}
			runs[cur].held = id
			cur = next
		}
	}
	a.runs = runs
	return positive, proposals, true
}

// groupBySort copies the positive links of a list whose From nodes do not
// ascend into sorted, sortedW and sortedID, grouped by From in ascending
// order and otherwise in index order: a stable counting sort.
func (a *Arena) groupBySort(n int, links []Edge, col []int64) {
	start := grow(a.start, n+1)
	clear(start)
	for i, e := range links {
		if col[i] > 0 {
			start[e.From+1]++
		}
	}
	for u := range n {
		start[u+1] += start[u]
	}
	sorted, sortedW, sortedID := grow(a.sorted, start[n]), grow(a.sortedW, start[n]), grow(a.sortedID, start[n])
	for i, e := range links {
		if col[i] > 0 {
			p := start[e.From]
			start[e.From]++
			sorted[p], sortedW[p], sortedID[p] = e, col[i], i
		}
	}
	a.start, a.sorted, a.sortedW, a.sortedID = start, sorted, sortedW, sortedID
}

// MaxWeightBipartite returns an exact maximum-weight matching of the
// bipartite graph with n output-port nodes and n input-port nodes, together
// with its total weight. Edges with non-positive weight never appear in the
// result, so the matching is free to leave nodes unmatched. The returned
// slice is valid until the next exact call on the arena.
//
// The implementation is the classic Hungarian algorithm with potentials
// (Jonker-Volgenant style shortest augmenting paths, one row insertion at a
// time from zero duals) on a dense matrix over only the nodes incident to a
// positive-weight edge: O(k^3) time for k active nodes in the worst case,
// though a round relaxes only the cells that can change — on sparse or
// heavily tied instances a row's positive columns — and takes its minimum
// over blocks of columns (insertRow). It stands in for the OR-Tools
// linear-assignment solver the paper used; both compute the same optimum.
// Among equal-weight optima the result is fixed by the input: rows and
// columns are numbered in first-appearance order and every comparison keeps
// the lower-numbered column on ties, exactly as the textbook loop would
// (DESIGN.md §13.1; exact_ref_test.go holds that loop and the comparison).
func (a *Arena) MaxWeightBipartite(n int, edges []Edge) ([]Edge, int64) {
	capBefore := a.exactCap()
	a.Stats.ExactCalls++
	nr, nc := a.compactExact(n, edges)
	if nr == 0 {
		a.restoreIDMaps()
		a.countGrowth(capBefore, a.exactCap())
		return nil, 0
	}
	a.Stats.ExactRows += int64(nr)
	nc = max(nc, nr) // the formulation needs nr <= nc: pad with weight-0 columns
	a.prepDense(edges, nr, nc)
	for i := 1; i <= nr; i++ {
		a.insertRow(i, nc)
	}
	a.restoreIDMaps()
	out, total := a.extractExact(nc)
	a.countGrowth(capBefore, a.exactCap())
	return out, total
}

// compactExact maps the active nodes of the positive-weight edges to dense
// indices in first-appearance order, filling rowID/colID/rows/cols, and
// leaves each compact row's positive-edge count (duplicates included) in
// posHi for prepDense. It returns the compacted row and column counts. The
// caller must invoke restoreIDMaps before returning.
func (a *Arena) compactExact(n int, edges []Edge) (nr, nc int) {
	a.rowID = growFill(a.rowID, n, -1)
	a.colID = growFill(a.colID, n, -1)
	rowID, colID := a.rowID, a.colID
	rows, cols, deg := a.rows[:0], a.cols[:0], a.posHi[:0]
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		if rowID[e.From] < 0 {
			rowID[e.From] = len(rows)
			rows = append(rows, e.From)
			deg = append(deg, 0)
		}
		deg[rowID[e.From]]++
		if colID[e.To] < 0 {
			colID[e.To] = len(cols)
			cols = append(cols, e.To)
		}
	}
	a.rows, a.cols, a.posHi = rows, cols, deg
	return len(rows), len(cols)
}

// restoreIDMaps resets the node-index maps to -1 for the next call.
func (a *Arena) restoreIDMaps() {
	for _, r := range a.rows {
		a.rowID[r] = -1
	}
	for _, c := range a.cols {
		a.colID[c] = -1
	}
}

// prepDense builds the dense weight matrix over the compacted instance,
// lists each row's positive-weight columns with their weights (the cells
// insertRow's short rounds relax) and initializes the dual potentials and
// assignment arrays. Absent pairs have weight 0, equivalent to leaving the
// row unmatched; duplicate edges keep the max and are listed once.
//
// Zero duals are the only admissible start: the Jonker-Volgenant column
// reduction is wrong on rectangular instances, moves the tie-breaks and
// gained nothing measured (DESIGN.md §13.3).
func (a *Arena) prepDense(edges []Edge, nr, nc int) {
	a.w = grow(a.w, nr*nc)
	w := a.w
	clear(w)
	// Carve posCols into one region per row, sized by compactExact's counts.
	a.posLo = grow(a.posLo, nr)
	lo, hi := a.posLo, a.posHi
	var total int32
	for i, deg := range hi {
		lo[i], hi[i] = total, total
		total += deg
	}
	a.posCols = grow(a.posCols, int(total))
	pos := a.posCols
	rowID, colID := a.rowID, a.colID
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		i, j := rowID[e.From], colID[e.To]
		cell := &w[i*nc+j]
		if *cell == 0 {
			pos[hi[i]] = int32(j)
			hi[i]++
		}
		*cell = max(*cell, e.Weight)
	}
	// Pack each row's weights beside its columns, duplicates at their max.
	a.posW = grow(a.posW, int(total))
	for i := range nr {
		for k := lo[i]; k < hi[i]; k++ {
			a.posW[k] = w[i*nc+int(pos[k])]
		}
	}
	// The dual and assignment arrays are 1-indexed. p[j] is the row assigned
	// to column j; minimization runs over cost = -weight.
	a.u, a.v = grow(a.u, nc+1), grow(a.v, nc+1)
	a.p, a.way = grow(a.p, nc+1), grow(a.way, nc+1)
	clear(a.u)
	clear(a.v)
	clear(a.p)
	clear(a.way)
	// minv is padded to whole blocks; the padding counts as tree columns.
	nb := (nc + minvBlock - 1) / minvBlock
	a.bmin, a.minv = grow(a.bmin, nb), grow(a.minv, nb*minvBlock)
	for c := nc; c < len(a.minv); c++ {
		a.minv[c] = inTree
	}
	a.path, a.dIn = grow(a.path, nc+1), grow(a.dIn, nc+1)
}

const (
	// minvBlock is the number of columns that share one cell of bmin.
	minvBlock = 16
	// inTree is minv of a column that has joined the tree (and of the
	// padding): below every candidate, so no relaxation touches it, and
	// skipped when a block minimum is taken.
	inTree = -inf
)

// insertRow runs one shortest-augmenting-path insertion of row i on the
// dense matrix. It runs the rounds of the textbook loop (used[] marks,
// minv[j] -= delta after every round; kept as the oracle of
// exact_ref_test.go) one for one, and every comparison that decides anything
// comes out as it does there, so way, p, u, v and the round count are the
// textbook's; it only avoids the work around them that cannot change
// anything. A round takes the row i0 that just joined the tree, relaxes minv
// against it, and moves the free column of least minv into the tree.
//
//   - minv is stored relative to the start of the insertion: with d the sum of
//     the deltas so far, a candidate is written as cur+d, its textbook value
//     now is stored-d, and both sides of every comparison shift alike. So
//     there is no decrement sweep, and a round's delta is its argmin minus d.
//   - Duals settle once. A scan reads u[i0] — i0 joined this round — and v of
//     free columns; the textbook's "u[p[j]] += delta, v[j] -= delta" touches
//     neither before that read. So path[k] records d on joining (dIn[k]) and
//     receives d_final - dIn[k] after the last round.
//   - Only cells that can change are relaxed. A candidate is base - w - v[j]
//     with base = d - u[i0]. Let minBase be the least base scanned so far: that
//     row was scanned whole and w >= 0, so minv[j] <= minBase - v[j] for every
//     free j. A row with base >= minBase therefore cannot lower minv where its
//     weight is 0 (absent pair or padding): it relaxes its positive columns
//     only, prepDense's list and packed weights read in sequence (relaxPacked).
//     A row with a smaller base is scanned whole (Stats.FullScans) and lowers
//     minBase; the first round always is.
//   - The argmin goes by blocks. minv is indexed by column — inTree once the
//     column has joined, which stands in for used[] — and bmin holds the
//     minimum over the free cells of each minvBlock columns: lowered with a
//     cell, recomputed for one block when one of its columns joins. The first
//     block whose minimum is strictly smallest, then the first cell equal to
//     it, is the lowest-index minimum the textbook's ascending strict-< scan
//     keeps. (A free column exists in every round since nr <= nc.)
func (a *Arena) insertRow(i, nc int) {
	u, p := a.u, a.p
	v, way := a.v[1:], a.way[1:] // by 0-based column, like w, minv and posCols
	minv, bmin, w := a.minv, a.bmin, a.w
	path, dIn := a.path[:1], a.dIn[:1]
	p[0], path[0], dIn[0] = i, 0, 0

	// Round one: row i against every column, d = 0; the tree is empty.
	wrow := w[(i-1)*nc : i*nc]
	minBase := -u[i]
	for b := range bmin {
		m := int64(inf)
		for c := b * minvBlock; c < min((b+1)*minvBlock, nc); c++ {
			cur := minBase - wrow[c] - v[c]
			minv[c], way[c] = cur, 0
			m = min(m, cur)
		}
		bmin[b] = m
	}
	rounds, full := 1, 1
	for {
		// Argmin over the free columns, lowest index on ties; its value is
		// the cumulative delta d after this round.
		b1, d := 0, bmin[0]
		for b, m := range bmin {
			if m < d {
				d, b1 = m, b
			}
		}
		blk := minv[b1*minvBlock : (b1+1)*minvBlock]
		k := 0
		for blk[k] != d {
			k++
		}
		j0 := b1*minvBlock + k + 1
		if p[j0] == 0 {
			// Settle the duals, then flip the augmenting path.
			for t, j := range path {
				u[p[j]] += d - dIn[t]
				a.v[j] -= d - dIn[t]
			}
			for j0 != 0 {
				j1 := way[j0-1]
				p[j0] = p[j1]
				j0 = j1
			}
			a.Stats.AugmentRounds += int64(rounds)
			a.Stats.FullScans += int64(full)
			return
		}
		// Column j0 joins the tree at d.
		blk[k] = inTree
		m := int64(inf)
		for _, x := range blk {
			if x != inTree {
				m = min(m, x)
			}
		}
		bmin[b1] = m
		path, dIn = append(path, j0), append(dIn, d)

		rounds++
		i0 := p[j0]
		base := d - u[i0]
		if base < minBase {
			minBase = base
			full++
			wrow = w[(i0-1)*nc : i0*nc]
			for c, mv := range minv[:nc] {
				if cur := base - wrow[c] - v[c]; cur < mv {
					minv[c], way[c] = cur, j0
					bmin[c/minvBlock] = min(bmin[c/minvBlock], cur)
				}
			}
			continue
		}
		lo, hi := a.posLo[i0-1], a.posHi[i0-1]
		relaxPacked(a.posCols[lo:hi], a.posW[lo:hi], base, j0, v, minv, bmin, way)
	}
}

// relaxPacked is a short round's relaxation over the positive columns cs of
// the row that joined the tree at base, weights ws. It is kept out of
// insertRow, whose many live slices would spill its loop to the stack.
//
//go:noinline
func relaxPacked(cs []int32, ws []int64, base int64, j0 int, v, minv, bmin []int64, way []int) {
	ws, minv, way = ws[:len(cs)], minv[:len(v)], way[:len(v)] // lengths the compiler can match
	for k, c := range cs {
		if cur := base - ws[k] - v[c]; cur < minv[c] {
			minv[c], way[c] = cur, j0
			bmin[c/minvBlock] = min(bmin[c/minvBlock], cur)
		}
	}
}

// extractExact reads the assignment out of p, translating compact indices
// back to node ids and dropping zero-weight (padding or absent) pairs.
func (a *Arena) extractExact(nc int) ([]Edge, int64) {
	m := a.outX[:0]
	var total int64
	for j := 1; j <= len(a.cols); j++ {
		i := a.p[j]
		if i == 0 {
			continue
		}
		if wt := a.w[(i-1)*nc+(j-1)]; wt > 0 {
			m = append(m, Edge{From: a.rows[i-1], To: a.cols[j-1], Weight: wt})
			total += wt
		}
	}
	a.outX = m
	if len(m) == 0 {
		return nil, 0
	}
	return m, total
}
