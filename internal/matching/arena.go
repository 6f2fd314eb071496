package matching

import "math"

const inf = math.MaxInt64 / 4

// Arena is reusable scratch for the bipartite matchers. The Octopus greedy
// loop solves thousands of matchings per run; with a per-worker Arena the
// dense matrix, potentials, radix-sort buffer, and result slices are
// allocated once and recycled, so the per-α matchings stop churning the
// garbage collector.
//
// An Arena is not safe for concurrent use, and the edge slice returned by
// its matcher methods aliases arena storage: it is valid only until the
// next call of the same kind on the same Arena — a greedy result outlives
// exact calls and an exact result greedy calls, their backing being
// separate (core's Octopus-B holds both). The package-level GreedyBipartite
// wrapper uses a private Arena per call and therefore keeps its
// allocate-fresh semantics.
//
// The zero Arena is ready to use.
type Arena struct {
	// Stats accumulates matcher activity across calls. The arena is
	// single-goroutine, so plain fields suffice; callers that share work
	// across arenas (core's per-worker scratch) sum the structs afterwards.
	Stats Stats

	// Greedy matcher state.
	ord      []wlink // the last call's positive links in greedy order (see GreedyColumn)
	ordBuf   []wlink // ping-pong buffer for the radix sort
	usedFrom []bool  // per-node matched marks; all-false between calls
	usedTo   []bool
	outG     []Edge // greedy result backing

	// Exact matcher state.
	rowID, colID []int // node -> compact index; -1 between calls
	rows, cols   []int // compact index -> node
	w            []int64
	u, v         []int64
	p, way       []int
	minv, bmin   []int64 // per column (inf once in the tree); minimum per block of minvBlock
	path         []int   // tree columns of the current insertion, root first
	dIn          []int64 // dIn[k]: cumulative delta when path[k] joined the tree
	posCols      []int32 // positive-weight columns (0-based), row by row
	posLo, posHi []int32 // compact row i owns posCols[posLo[i]:posHi[i]]
	outX         []Edge  // exact result backing
}

// Stats counts arena matcher activity. All fields are monotone totals
// over the arena's lifetime. This package stays dependency-free:
// consumers translate these counts into whatever metrics system they use.
type Stats struct {
	GreedyCalls   int64 // GreedyBipartite and GreedyColumn invocations
	GreedyEdges   int64 // positive-weight edges considered by greedy calls
	GreedyMatched int64 // edges emitted by greedy calls
	ExactCalls    int64 // MaxWeightBipartite invocations
	ExactRows     int64 // compacted rows solved across exact calls
	AugmentRounds int64 // shortest-augmenting-path relaxation rounds
	FullScans     int64 // of those, rounds that relaxed a whole row (see insertRow)
	Grows         int64 // calls that grew arena storage
	Reuses        int64 // calls served entirely from existing storage

	// Greedy calls that radix-sorted, and the insertion moves of those that
	// repaired the arena's previous order. Both depend on which arena saw
	// which call: summed over a pool of arenas they vary with its size, where
	// GreedyCalls, GreedyEdges and GreedyMatched do not.
	GreedyResorted int64
	GreedyMoves    int64
}

// AddTo accumulates s into dst field by field.
func (s Stats) AddTo(dst *Stats) {
	dst.GreedyCalls += s.GreedyCalls
	dst.GreedyEdges += s.GreedyEdges
	dst.GreedyMatched += s.GreedyMatched
	dst.GreedyResorted += s.GreedyResorted
	dst.GreedyMoves += s.GreedyMoves
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
	return cap(a.ord) + cap(a.ordBuf) + cap(a.usedFrom) + cap(a.usedTo) + cap(a.outG)
}

// exactDone closes out one exact call's grow/reuse accounting.
func (a *Arena) exactDone(capBefore int) {
	if a.exactCap() > capBefore {
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
		cap(a.posCols) + cap(a.posLo) + cap(a.posHi) + cap(a.outX)
}

// growBools returns b extended to length >= n; fresh cells are false.
func growBools(b []bool, n int) []bool {
	if len(b) < n {
		b = append(b, make([]bool, n-len(b))...)
	}
	return b
}

// growIDs returns ids extended to length >= n; fresh cells are -1.
func growIDs(ids []int, n int) []int {
	for len(ids) < n {
		ids = append(ids, -1)
	}
	return ids
}

// grow returns s resized to length n, reallocating only when it must; the
// cells keep whatever an earlier call left in them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	return s[:n]
}

// GreedyBipartite is the arena-backed variant of the package-level
// GreedyBipartite; see its documentation. The returned slice is valid
// until the next greedy call on the arena.
func (a *Arena) GreedyBipartite(n int, edges []Edge) ([]Edge, int64) { return a.greedy(n, edges, nil) }

// GreedyColumn is GreedyBipartite on links[i] reweighted to col[i] (links'
// own Weight fields are not read): the same matching, emitted in the same
// order. It serves a run of columns that order one link list almost alike,
// such as core's candidate α's: the previous order is repaired, not rebuilt.
func (a *Arena) GreedyColumn(n int, links []Edge, col []int64) ([]Edge, int64) {
	return a.greedy(n, links, col)
}

// greedy takes the positive links by (weight descending, index ascending) —
// weights from col, or the links' own when col is nil — keeping each whose
// endpoints are both free. The order is strict and total, so one
// arrangement satisfies it, however it is reached: by carry, or else by the
// stable radix sort of the positive links in index order.
func (a *Arena) greedy(n int, links []Edge, col []int64) ([]Edge, int64) {
	capBefore := a.greedyCap()
	if col == nil || !a.carry(col) {
		ord := a.ord[:0]
		for i, e := range links {
			if col != nil {
				e.Weight = col[i]
			}
			if e.Weight > 0 {
				ord = append(ord, wlink{e.Weight, i})
			}
		}
		a.ord, a.ordBuf = ord, grow(a.ordBuf, len(ord))
		radixSort(ord, a.ordBuf)
		a.Stats.GreedyResorted++
	}
	a.usedFrom = growBools(a.usedFrom, n)
	a.usedTo = growBools(a.usedTo, n)
	usedFrom, usedTo := a.usedFrom, a.usedTo
	m := a.outG[:0]
	var total int64
	for _, o := range a.ord {
		e := links[o.link]
		if usedFrom[e.From] || usedTo[e.To] {
			continue
		}
		usedFrom[e.From] = true
		usedTo[e.To] = true
		m = append(m, Edge{From: e.From, To: e.To, Weight: o.w})
		total += o.w
	}
	a.outG = m
	// Restore the all-false invariant: only matched endpoints were set.
	for _, e := range m {
		usedFrom[e.From] = false
		usedTo[e.To] = false
	}
	a.Stats.GreedyCalls++
	a.Stats.GreedyEdges += int64(len(a.ord))
	a.Stats.GreedyMatched += int64(len(m))
	if a.greedyCap() > capBefore {
		a.Stats.Grows++
	} else {
		a.Stats.Reuses++
	}
	if len(m) == 0 {
		return nil, 0
	}
	return m, total
}

// moveBudget is the insertion moves carry may make per link it has passed —
// about what the radix passes cost — on top of half a move per link up front.
const moveBudget = 4

// carry rewrites the weights of a.ord, the previous call's order, from col
// and repairs the order by insertion. It reports false, a.ord unspecified,
// unless a.ord holds exactly col's positive indices (it never repeats one,
// so equal count and every index positive suffice) and the budget holds.
func (a *Arena) carry(col []int64) bool {
	ord := a.ord
	positive := 0
	for _, w := range col {
		if w > 0 {
			positive++
		}
	}
	if positive != len(ord) {
		return false
	}
	left := len(ord) / 2
	for k := range ord {
		l := ord[k].link
		if l >= len(col) || col[l] <= 0 {
			return false
		}
		x, j := wlink{col[l], l}, k
		for ; j > 0 && x.before(ord[j-1]); j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = x
		if left += moveBudget - (k - j); left < 0 {
			return false
		}
	}
	a.Stats.GreedyMoves += int64(len(ord)/2 + moveBudget*len(ord) - left)
	return true
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
		a.exactDone(capBefore)
		return nil, 0
	}
	a.Stats.ExactRows += int64(nr)
	// The shortest-augmenting-path formulation needs nr <= nc. Pad columns
	// with dummies of weight 0 if necessary.
	if nc < nr {
		nc = nr
	}
	a.prepDense(edges, nr, nc)
	for i := 1; i <= nr; i++ {
		a.insertRow(i, nc)
	}
	a.restoreIDMaps()
	out, total := a.extractExact(nc)
	a.exactDone(capBefore)
	return out, total
}

// compactExact maps the active nodes of the positive-weight edges to dense
// indices in first-appearance order, filling rowID/colID/rows/cols, and
// leaves each compact row's positive-edge count (duplicates included) in
// posHi for prepDense. It returns the compacted row and column counts. The
// caller must invoke restoreIDMaps before returning.
func (a *Arena) compactExact(n int, edges []Edge) (nr, nc int) {
	a.rowID = growIDs(a.rowID, n)
	a.colID = growIDs(a.colID, n)
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
// lists each row's positive-weight columns (the cells insertRow's short
// rounds relax) and initializes the dual potentials and assignment arrays.
// Absent pairs have weight 0, equivalent to leaving the row unmatched;
// duplicate edges keep the max and are listed once.
//
// Zero duals are the only admissible start: the Jonker-Volgenant column
// reduction (v[j] = min_i cost(i, j)) was tried and rejected. It is
// correct only on square compacted instances (a pre-reduced column that
// ends unmatched strands v < 0, which complementary slackness forbids,
// yielding a suboptimal assignment), it changes which equal-weight optimum
// the tie-breaks select (drifting pinned ψ trajectories), and measured on
// the full-scale workload it cut augment rounds by only ~21% with no
// wall-clock gain — full-contention instances keep long augmenting paths
// regardless of the start. See DESIGN.md §13.3.
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
	// The dual and assignment arrays are 1-indexed. p[j] is the row assigned
	// to column j; minimization runs over cost = -weight.
	a.u = grow(a.u, nc+1)
	a.v = grow(a.v, nc+1)
	a.p = grow(a.p, nc+1)
	a.way = grow(a.way, nc+1)
	clear(a.u)
	clear(a.v)
	clear(a.p)
	clear(a.way)
	// minv is padded to whole blocks; the padding counts as tree columns.
	nb := (nc + minvBlock - 1) / minvBlock
	a.bmin = grow(a.bmin, nb)
	a.minv = grow(a.minv, nb*minvBlock)
	for c := nc; c < len(a.minv); c++ {
		a.minv[c] = inTree
	}
	a.path = grow(a.path, nc+1)
	a.dIn = grow(a.dIn, nc+1)
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
//     only, from prepDense's list. A row with a smaller base is scanned whole
//     (Stats.FullScans) and lowers minBase; the first round always is.
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
	p[0] = i
	path[0], dIn[0] = 0, 0

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
		wrow = w[(i0-1)*nc : i0*nc]
		base := d - u[i0]
		if base < minBase {
			minBase = base
			full++
			for c, mv := range minv[:nc] {
				if cur := base - wrow[c] - v[c]; cur < mv {
					minv[c], way[c] = cur, j0
					bmin[c/minvBlock] = min(bmin[c/minvBlock], cur)
				}
			}
			continue
		}
		for _, c := range a.posCols[a.posLo[i0-1]:a.posHi[i0-1]] {
			if cur := base - wrow[c] - v[c]; cur < minv[c] {
				minv[c], way[c] = cur, j0
				bmin[c/minvBlock] = min(bmin[c/minvBlock], cur)
			}
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
