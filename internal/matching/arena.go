package matching

// Arena is reusable scratch for the bipartite matchers. The Octopus greedy
// loop solves thousands of matchings per run; with a per-worker Arena the
// dense matrix, potentials, radix-sort buffer, and result slices are
// allocated once and recycled, so the per-α matchings stop churning the
// garbage collector.
//
// An Arena is not safe for concurrent use, and the edge slice returned by
// its matcher methods aliases arena storage: it is valid only until the
// next call on the same Arena. The package-level MaxWeightBipartite and
// GreedyBipartite wrappers use a private Arena per call and therefore keep
// their original allocate-fresh semantics.
//
// The zero Arena is ready to use.
type Arena struct {
	// Stats accumulates matcher activity across calls. The arena is
	// single-goroutine, so plain fields suffice; callers that share work
	// across arenas (core's per-worker scratch) sum the structs afterwards.
	Stats Stats

	// Greedy matcher state.
	pos      []Edge // positive-weight working copy of the input
	radixBuf []Edge // ping-pong buffer for the radix sort
	usedFrom []bool // per-node matched marks; all-false between calls
	usedTo   []bool
	outG     []Edge // greedy result backing

	// Exact matcher state.
	rowID, colID []int // node -> compact index; -1 between calls
	rows, cols   []int // compact index -> node
	w            []int64
	u, v, minv   []int64
	p, way       []int
	free, path   []int  // unused columns (ascending) / alternating-path columns
	outX         []Edge // exact result backing
}

// Stats counts arena matcher activity. All fields are monotone totals
// over the arena's lifetime. This package stays dependency-free:
// consumers translate these counts into whatever metrics system they use.
type Stats struct {
	GreedyCalls   int64 // GreedyBipartite invocations
	GreedyEdges   int64 // positive-weight edges considered by greedy calls
	GreedyMatched int64 // edges emitted by greedy calls
	ExactCalls    int64 // MaxWeightBipartite invocations
	ExactRows     int64 // compacted rows solved across exact calls
	AugmentRounds int64 // shortest-augmenting-path relaxation rounds
	Grows         int64 // calls that grew arena storage
	Reuses        int64 // calls served entirely from existing storage
}

// AddTo accumulates s into dst field by field.
func (s Stats) AddTo(dst *Stats) {
	dst.GreedyCalls += s.GreedyCalls
	dst.GreedyEdges += s.GreedyEdges
	dst.GreedyMatched += s.GreedyMatched
	dst.ExactCalls += s.ExactCalls
	dst.ExactRows += s.ExactRows
	dst.AugmentRounds += s.AugmentRounds
	dst.Grows += s.Grows
	dst.Reuses += s.Reuses
}

// greedyCap sums the capacities of the greedy-side buffers; comparing it
// before and after a call detects whether the call had to grow storage.
func (a *Arena) greedyCap() int {
	return cap(a.pos) + cap(a.radixBuf) + cap(a.usedFrom) + cap(a.usedTo) + cap(a.outG)
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
		cap(a.w) + cap(a.u) + cap(a.v) + cap(a.minv) +
		cap(a.p) + cap(a.way) + cap(a.free) + cap(a.path) + cap(a.outX)
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

func growInts(s []int, n int) []int {
	if cap(s) < n {
		s = make([]int, n)
	}
	return s[:n]
}

func growInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		s = make([]int64, n)
	}
	return s[:n]
}

// GreedyBipartite is the arena-backed variant of the package-level
// GreedyBipartite; see its documentation. The returned slice is valid
// until the next call on the arena.
func (a *Arena) GreedyBipartite(n int, edges []Edge) ([]Edge, int64) {
	capBefore := a.greedyCap()
	pos := a.pos[:0]
	for _, e := range edges {
		if e.Weight > 0 {
			pos = append(pos, e)
		}
	}
	a.pos = pos
	if cap(a.radixBuf) < len(pos) {
		a.radixBuf = make([]Edge, len(pos))
	}
	radixSortEdges(pos, a.radixBuf[:len(pos)])
	a.usedFrom = growBools(a.usedFrom, n)
	a.usedTo = growBools(a.usedTo, n)
	usedFrom, usedTo := a.usedFrom, a.usedTo
	m := a.outG[:0]
	var total int64
	for _, e := range pos {
		if usedFrom[e.From] || usedTo[e.To] {
			continue
		}
		usedFrom[e.From] = true
		usedTo[e.To] = true
		m = append(m, e)
		total += e.Weight
	}
	a.outG = m
	// Restore the all-false invariant: only matched endpoints were set.
	for _, e := range m {
		usedFrom[e.From] = false
		usedTo[e.To] = false
	}
	a.Stats.GreedyCalls++
	a.Stats.GreedyEdges += int64(len(pos))
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

// MaxWeightBipartite is the arena-backed variant of the package-level
// MaxWeightBipartite; see its documentation. The returned slice is valid
// until the next call on the arena.
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
		a.Stats.AugmentRounds += a.denseInsertRow(i, nc)
	}
	a.restoreIDMaps()
	out, total := a.extractExact(nc)
	a.exactDone(capBefore)
	return out, total
}

// compactExact maps the active nodes of the positive-weight edges to dense
// indices in first-appearance order, filling rowID/colID/rows/cols. It
// returns the compacted row and column counts. The caller must invoke
// restoreIDMaps before returning.
func (a *Arena) compactExact(n int, edges []Edge) (nr, nc int) {
	a.rowID = growIDs(a.rowID, n)
	a.colID = growIDs(a.colID, n)
	rowID, colID := a.rowID, a.colID
	rows, cols := a.rows[:0], a.cols[:0]
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		if rowID[e.From] < 0 {
			rowID[e.From] = len(rows)
			rows = append(rows, e.From)
		}
		if colID[e.To] < 0 {
			colID[e.To] = len(cols)
			cols = append(cols, e.To)
		}
	}
	a.rows, a.cols = rows, cols
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

// prepDense builds the dense weight matrix over the compacted instance and
// initializes the dual potentials and assignment arrays. Absent pairs have
// weight 0, equivalent to leaving the row unmatched; duplicate edges keep
// the max.
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
	a.w = growInt64s(a.w, nr*nc)
	w := a.w
	for i := range w[:nr*nc] {
		w[i] = 0
	}
	rowID, colID := a.rowID, a.colID
	for _, e := range edges {
		if e.Weight <= 0 {
			continue
		}
		i, j := rowID[e.From], colID[e.To]
		if e.Weight > w[i*nc+j] {
			w[i*nc+j] = e.Weight
		}
	}
	// The dual and assignment arrays are 1-indexed. p[j] is the row assigned
	// to column j; minimization runs over cost = -weight.
	a.u = growInt64s(a.u, nc+1)
	a.v = growInt64s(a.v, nc+1)
	a.p = growInts(a.p, nc+1)
	a.way = growInts(a.way, nc+1)
	a.minv = growInt64s(a.minv, nc+1)
	a.free = growInts(a.free, nc)
	a.path = growInts(a.path, nc+1)
	for i := range a.u {
		a.u[i] = 0
	}
	for j := range a.v {
		a.v[j] = 0
		a.p[j] = 0
		a.way[j] = 0
	}
}

// denseInsertRow runs one shortest-augmenting-path row insertion on the
// dense matrix and returns the relaxation-round count. Two representation
// tricks keep every comparison (and hence every tie-break and the final
// assignment) bit-identical to the textbook form:
//
//  1. The unused columns live in `free`, kept in ascending order, so the
//     scan visits exactly the columns the textbook loop would, in the
//     same order, without a used[] branch.
//  2. Instead of decrementing minv[j] for every unused column after each
//     round ("minv[j] -= delta"), we accumulate the total delta D and
//     store minv normalized to the start of the row: a value written at
//     time t is stored as cur+D_t, and its textbook value now is
//     stored-D. All comparisons within a round shift both sides by the
//     same D, so their outcomes are unchanged, and the O(nc) decrement
//     sweep disappears. (Values are bounded far below inf, so the offset
//     cannot overflow.)
func (a *Arena) denseInsertRow(i, nc int) int64 {
	u, v, p, way, minv, w := a.u, a.v, a.p, a.way, a.minv, a.w
	p[0] = i
	j0 := 0
	free := a.free[:0]
	for j := 1; j <= nc; j++ {
		free = append(free, j)
		minv[j] = inf
	}
	path := a.path[:0]
	var d int64 = 0 // cumulative delta this row
	var rounds int64
	k1 := -1 // position of j0 in free (the previous round's argmin index)
	for {
		rounds++
		if j0 != 0 {
			// Retire j0 from the free list, preserving order. Its position
			// is the argmin index recorded by the previous round's scan.
			free = append(free[:k1], free[k1+1:]...)
		}
		path = append(path, j0)
		i0 := p[j0]
		deltaN := int64(inf) // normalized: delta + d
		j1 := 0
		wrow := w[(i0-1)*nc : i0*nc]
		ui0 := u[i0]
		for k, j := range free {
			cur := -wrow[j-1] - ui0 - v[j] + d
			mv := minv[j]
			if cur < mv {
				mv = cur
				minv[j] = cur
				way[j] = j0
			}
			if mv < deltaN {
				deltaN = mv
				j1 = j
				k1 = k
			}
		}
		delta := deltaN - d
		for _, j := range path {
			u[p[j]] += delta
			v[j] -= delta
		}
		d = deltaN
		j0 = j1
		if p[j0] == 0 {
			break
		}
	}
	for j0 != 0 {
		j1 := way[j0]
		p[j0] = p[j1]
		j0 = j1
	}
	return rounds
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
