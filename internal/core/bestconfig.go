package core

import (
	"cmp"
	"slices"

	"octopus/internal/graph"
	"octopus/internal/matching"
	"octopus/internal/par"
)

// evalScratch is the reusable per-worker scratch of the parallel α
// evaluation: the weighted-edge buffer, the row/column upper-bound arrays
// (slice-backed, keyed by node index), the multi-port mode's link marks, the
// matching arena and the worker's greedy incumbent. One scratch belongs to
// one worker for the duration of a parallelFor, so no synchronization is
// needed, and the greedy loop stops allocating after the first iteration.
type evalScratch struct {
	we       []matching.Edge
	row, col []int64 // length fabric.N(), all-zero between rowColUB calls
	taken    []bool  // by fabric link id, all-false between evalMultiPort calls
	arena    matching.Arena
	local    best // see bestConfiguration, phase 1...
	localAt  int  // ...and its candidate's position in alphas
}

// weighted returns G' for one g-table column: links[i] weighted col[i], zero
// weights dropped. It aliases the scratch and is valid until the next call.
func (sc *evalScratch) weighted(links []matching.Edge, col []int64) []matching.Edge {
	we := sc.we[:0]
	for li, g := range col {
		if g > 0 {
			we = append(we, matching.Edge{From: links[li].From, To: links[li].To, Weight: g})
		}
	}
	sc.we = we
	return we
}

// best tracks the highest benefit-per-unit-cost configuration seen so far
// during one greedy iteration.
type best struct {
	links   []graph.Edge
	alpha   int
	benefit int64
	delta   int
}

// consider updates the incumbent if (benefit, alpha) has a strictly higher
// benefit per unit cost. Ties keep the earlier candidate, so a fixed
// consideration order (ascending α, greedy before exact) makes the choice
// deterministic.
func (b *best) consider(links []graph.Edge, alpha int, benefit int64) {
	if b.beats(benefit, alpha) {
		b.links, b.alpha, b.benefit = links, alpha, benefit
	}
}

// beats reports whether (benefit, alpha) would strictly exceed the
// incumbent's benefit per unit cost.
func (b *best) beats(benefit int64, alpha int) bool {
	if b.benefit == 0 {
		return benefit > 0
	}
	return benefit*int64(b.alpha+b.delta) > b.benefit*int64(alpha+b.delta)
}

// exceeds reports whether the incumbent's benefit per unit cost strictly
// exceeds (benefit, alpha)'s. Note !exceeds is weaker than beats: on equal
// ratios neither holds.
func (b *best) exceeds(benefit int64, alpha int) bool {
	if b.benefit == 0 {
		return false
	}
	return b.benefit*int64(alpha+b.delta) > benefit*int64(b.alpha+b.delta)
}

// alphaEval is the per-α evaluation record of one greedy iteration.
type alphaEval struct {
	// Phase-1 candidate: the greedy matching in the single-port bipartite
	// modes (links only where a reduction can pick it, see phase 1), the
	// mode's only candidate otherwise (evalAlpha).
	links []graph.Edge
	w     int64
	// Exact bipartite mode only: matching-weight upper bound and (phase 2)
	// the exact matching.
	ub         int64
	exactLinks []graph.Edge
	exactW     int64
}

// bestConfiguration implements Procedure 2 (BestConfiguration) with the
// optimizations described in DESIGN.md: the α-candidate set of Procedure 1,
// a two-phase evaluation that computes the cheap greedy matching and a
// row/column upper bound for every α first and runs the exact matcher only
// where the bound can still win, and parallel evaluation across α's (the
// paper's §4.1 notes the per-iteration matchings are embarrassingly
// parallel). The result is deterministic: it equals a sequential
// ascending-α scan considering the greedy then the exact matching of each
// α. Returns a nil link set with benefit 0 when nothing can be served.
func (s *Scheduler) bestConfiguration(maxAlpha int) ([]graph.Edge, int, int64) {
	s.lastChanged = s.tr.takeChanged()
	alphas := s.tr.candidateAlphas(maxAlpha)
	s.lastCandidates = len(alphas)
	if len(alphas) == 0 {
		return nil, 0, 0
	}

	bipartite := !s.opt.MultiHop && s.opt.Ports == 1
	bst := &best{delta: s.opt.Delta}
	if s.opt.AlphaSearch == AlphaBinary {
		s.ternarySearch(alphas, bst)
		sortLinks(bst.links)
		return bst.links, bst.alpha, bst.benefit
	}

	evals := slices.Grow(s.evals[:0], len(alphas))[:len(alphas)]
	clear(evals)
	s.evals = evals
	twoPhase := bipartite && s.opt.Matcher != MatcherGreedy

	// Phase 1: cheap evaluation of every α, a run of α's carrying its greedy
	// matching (GreedyNext). Every greedy weight is recorded, but a link set
	// is copied out of its arena only when it strictly beats its worker's
	// incumbent, which loses nothing since a worker meets its α's in
	// ascending order (DESIGN.md §4, "Copying one matching").
	if bipartite {
		for _, sc := range s.scratch {
			sc.local.benefit = 0
		}
		s.forAlphas(alphas, alphaRuns, func(sc *evalScratch, i int, prev, col []int64) {
			m, gw := sc.arena.GreedyNext(s.fabric.N(), s.tr.glinks, prev, col)
			evals[i].w = gw
			if sc.local.beats(gw, alphas[i]) {
				sc.local.consider(appendLinks(sc.local.links[:0], m), alphas[i], gw)
				sc.localAt = i
			}
			if twoPhase {
				evals[i].ub = rowColUB(s.tr.glinks, col, sc.row, sc.col)
			}
		})
		for _, sc := range s.scratch {
			if sc.local.benefit > 0 {
				evals[sc.localAt].links = slices.Clone(sc.local.links)
			}
		}
	} else {
		s.forAlphas(alphas, len(alphas), func(sc *evalScratch, i int, _, col []int64) {
			evals[i].links, evals[i].w = s.evalAlpha(sc, alphas[i], col)
		})
	}
	// Reduce the phase-1 candidates (ascending α; deterministic).
	seed := &best{delta: s.opt.Delta}
	for i, a := range alphas {
		seed.consider(evals[i].links, a, evals[i].w)
	}
	if !twoPhase {
		sortLinks(seed.links)
		return seed.links, seed.alpha, seed.benefit
	}
	// Phase 2: exact matchings only where an upper bound can still strictly
	// beat the best greedy seed. Two admissible bounds apply: the row/column
	// bound of phase 1, and twice the greedy weight (the greedy matcher is a
	// 1/2-approximation, so exact(α) <= 2·greedy(α)). Membership depends
	// only on phase-1 output, so the computed set is deterministic.
	//
	// The two filters carry different tie semantics, deliberately. The
	// row/column filter is the historical one (solve only when ub strictly
	// beats the seed): a skipped α has exact(α) <= ub(α) <= seed ratio, so
	// its exact matching never strictly exceeds the seed and can never be
	// chosen. The 2·greedy filter must be strictly weaker on ties — it
	// skips only when the seed ratio strictly exceeds 2·greedy(α) — because
	// with exact(α) == seed ratio exactly, the ascending-α reduction below
	// could legitimately pick exact(α) (it precedes the seed's own entry
	// when α is smaller); strictness guarantees skipped α's satisfy
	// exact(α) < seed ratio and stay non-winners.
	sel := s.selBuf[:0]
	for i := range alphas {
		if seed.beats(evals[i].ub, alphas[i]) && !seed.exceeds(2*evals[i].w, alphas[i]) {
			sel = append(sel, i)
		}
	}
	s.selBuf = sel
	// Solve in descending upper-bound-ratio order (ascending α on ties) in
	// chunks of 2, 4, then phase2Chunk, tightening an incumbent between
	// chunks: a solve is skipped once the incumbent's ratio strictly exceeds
	// its upper bound. The first chunks are small because the best-bound α's
	// usually hold the winner, and an iteration rarely selects more than a
	// handful: with one size of 8 the first chunk was the whole iteration and
	// nothing was ever pruned. The schedule does not depend on the worker
	// count, so neither do the counters.
	// Such a solve satisfies exact(α) <= ub(α) < incumbent <= final best
	// ratio, so dropping it removes neither the argmax nor any tie the
	// ascending-α reduction below could prefer — the chosen configuration
	// is identical to solving the whole set (and independent of
	// parallelism, since pruning decisions happen only at the
	// single-threaded chunk boundaries). The chunk order does not leak into
	// the result: the reduction still walks evals in ascending α.
	slices.SortFunc(sel, func(x, y int) int {
		bx := evals[x].ub * int64(alphas[y]+s.opt.Delta)
		by := evals[y].ub * int64(alphas[x]+s.opt.Delta)
		return cmp.Or(cmp.Compare(by, bx), alphas[x]-alphas[y])
	})
	inc := *seed
	solved := 0
	for lo, size := 0, 2; lo < len(sel); size = min(2*size, phase2Chunk) {
		hi := min(lo+size, len(sel))
		// Compact the chunk down to the solves the incumbent cannot prune,
		// using the tighter of the two bounds (strictly, as above).
		k := lo
		for _, i := range sel[lo:hi] {
			if !inc.exceeds(min(evals[i].ub, 2*evals[i].w), alphas[i]) {
				sel[k] = i
				k++
			}
		}
		// The chunk becomes one g-table block, which wants ascending α's.
		// Reordering inside a chunk is harmless: the chunk's results only
		// feed inc, and pruning reads inc's ratio, which equal-ratio
		// candidates share whichever of them got there first.
		slices.Sort(sel[lo:k])
		var chunk [phase2Chunk]int
		for ci, i := range sel[lo:k] {
			chunk[ci] = alphas[i]
		}
		s.forAlphas(chunk[:k-lo], k-lo, func(sc *evalScratch, ci int, _, col []int64) {
			i := sel[lo+ci]
			m, mw := sc.arena.MaxWeightBipartite(s.fabric.N(), sc.weighted(s.tr.glinks, col))
			evals[i].exactLinks = appendLinks(nil, m)
			evals[i].exactW = mw
		})
		for _, i := range sel[lo:k] {
			inc.consider(evals[i].exactLinks, alphas[i], evals[i].exactW)
		}
		solved += k - lo
		lo = hi
	}
	s.prunedExact += int64(len(sel) - solved)
	// Final reduction mirrors the sequential order: for each α ascending,
	// greedy first, then the exact matching if computed.
	for i, a := range alphas {
		bst.consider(evals[i].links, a, evals[i].w)
		bst.consider(evals[i].exactLinks, a, evals[i].exactW)
	}
	sortLinks(bst.links)
	return bst.links, bst.alpha, bst.benefit
}

// phase2Chunk is the largest number of exact solves launched between
// incumbent updates in phase 2 (the first two chunks are 2 and 4). Smaller
// chunks prune more aggressively but synchronize more often.
const phase2Chunk = 8

// gTableEntries caps one block of the g(link, α) table at 8 MiB of int64
// (a fabric with more active links than that gets one-α blocks).
const gTableEntries = 1 << 20

// forAlphas calls f(scratch, j, prev, col) once for every j in [0, len(as)),
// col being the g-table column of α = as[j]: col[i] = g(s.tr.glinks[i], α)
// over the active links in (From, To) order, zeros included — the one source
// of G', sc.weighted(s.tr.glinks, col) being Procedure 2's weighted graph. as
// must ascend; it is cut into blocks of as many α's as the table holds, and a
// block into min(runs, its size) runs of consecutive α's, evaluated in
// parallel: a run by one worker in ascending α, a worker's runs in ascending
// order. prev is the run's previous column (empty at its first α); both are
// valid until the run ends. The runs do not depend on the worker count.
func (s *Scheduler) forAlphas(as []int, runs int, f func(sc *evalScratch, j int, prev, col []int64)) {
	states := s.tr.activeStates()
	nL := len(states)
	if nL == 0 {
		return
	}
	width := max(1, gTableEntries/nL)
	for lo := 0; lo < len(as); lo += width {
		block := as[lo:min(lo+width, len(as))]
		s.fillG(states, block)
		k := min(runs, len(block))
		s.parallelFor(k, func(w, r int) {
			first := r * len(block) / k
			for j := first; j < (r+1)*len(block)/k; j++ {
				prev := s.gbuf[max(j-1, first)*nL : j*nL] // empty at the run's first α
				f(s.scratch[w], lo+j, prev, s.gbuf[j*nL:(j+1)*nL])
			}
		})
	}
}

// alphaRuns is the number of runs phase 1 of the single-port bipartite modes
// cuts a block into; a run carries its greedy matching from α to α.
const alphaRuns = 8

// fillLinks is the number of links one fillG work item covers.
const fillLinks = 1024

// fillG sets s.gbuf[j*len(states)+li] = g(states[li], block[j]): per link,
// a cursor that rolls forward over the weight classes as α ascends. A column
// (one α, every link) is contiguous because that is how forAlphas reads it;
// the writes of consecutive links land in the same len(block) cache lines.
// Links are filled in parallel, fillLinks at a time: a link's slots are
// written by the one worker that holds its range, and the classes are only
// written by apply, so nothing is shared.
func (s *Scheduler) fillG(states []*linkState, block []int) {
	nL := len(states)
	if need := len(block) * nL; cap(s.gbuf) < need {
		// Links become active as packets move downstream, so need creeps up
		// from one iteration to the next: head-room, or every step re-allocates.
		s.gbuf = make([]int64, need+need/4)
	}
	s.parallelFor((nL+fillLinks-1)/fillLinks, func(_, c int) {
		for li := c * fillLinks; li < min((c+1)*fillLinks, nL); li++ {
			fillLink(s.gbuf[li:], nL, states[li].classes, block)
		}
	})
}

// fillLink writes g(link, block[j]) to col[j*stride] for every j, cs being
// the link's weight classes and block ascending. g(l, α) is the benefit of
// the top α packets of l's queue (Procedure 2, line 4), each packet counted
// once even if it has entries on other links: every class heavier than the
// first class k whose prefix count reaches α, plus a partial take of k. A
// class found that way is never empty, so drained cells cost nothing.
func fillLink(col []int64, stride int, cs []weightClass, block []int) {
	if len(cs) == 0 {
		for j := range block {
			col[j*stride] = 0
		}
		return
	}
	top, k := &cs[len(cs)-1], 0
	for j, a := range block {
		if a >= top.prefC {
			col[j*stride] = top.prefB
			continue
		}
		for cs[k].prefC < a {
			k++
		}
		col[j*stride] = cs[k].prefB - int64(cs[k].prefC-a)*cs[k].bw
	}
}

// parallelFor runs f(worker, 0..n-1) on Options.Parallelism workers of the
// shared pool. T^r is read-only meanwhile, and each worker owns
// s.scratch[worker] for the duration of the call.
func (s *Scheduler) parallelFor(n int, f func(worker, i int)) {
	s.ensureScratch(par.Workers(s.opt.Parallelism, n))
	par.For(s.opt.Parallelism, n, f)
}

// ensureScratch grows the per-worker scratch pool to at least `workers`
// entries. Called single-threaded before workers start.
func (s *Scheduler) ensureScratch(workers int) {
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, &evalScratch{
			row:   make([]int64, s.fabric.N()),
			col:   make([]int64, s.fabric.N()),
			local: best{delta: s.opt.Delta},
		})
	}
}

// ternarySearch finds a local maximum of the benefit-per-unit-cost function
// over the sorted candidate α's with O(log |A|) full evaluations (the
// paper's Octopus-B). The function need not be unimodal, so this finds one
// of its maxima, not necessarily the global one; §8 observes the loss is
// minimal in practice.
func (s *Scheduler) ternarySearch(alphas []int, bst *best) {
	evals := s.evals[:0]
	for range alphas {
		evals = append(evals, alphaEval{w: -1}) // w < 0: not evaluated yet
	}
	s.evals = evals
	eval := func(i int) *alphaEval {
		e := &evals[i]
		if e.w >= 0 {
			return e
		}
		e.w = 0
		s.forAlphas(alphas[i:i+1], 1, func(sc *evalScratch, _ int, _, col []int64) {
			e.links, e.w = s.evalAlpha(sc, alphas[i], col)
		})
		return e
	}
	ratioLess := func(i, j int) bool {
		return eval(i).w*int64(alphas[j]+s.opt.Delta) < eval(j).w*int64(alphas[i]+s.opt.Delta)
	}
	lo, hi := 0, len(alphas)-1
	for hi-lo > 2 {
		m1, m2 := lo+(hi-lo)/3, hi-(hi-lo)/3
		if ratioLess(m1, m2) {
			lo = m1 + 1
		} else {
			hi = m2 - 1
		}
	}
	for i := lo; i <= hi; i++ {
		e := eval(i)
		bst.consider(e.links, alphas[i], e.w)
	}
}

// evalAlpha returns the best configuration for α and its benefit, col being
// α's g-table column (see forAlphas): every mode but the single-port
// bipartite phase 1 evaluates an α here. The chained benefit is a chain
// estimate, not g, so that mode leaves col unread. It only reads T^r, plus
// the caller's exclusively-owned scratch.
func (s *Scheduler) evalAlpha(sc *evalScratch, a int, col []int64) ([]graph.Edge, int64) {
	switch {
	case s.opt.MultiHop:
		return s.chainedGreedy(a)
	case s.opt.Ports > 1:
		return s.evalMultiPort(sc, col)
	}
	// One port: the better of the greedy and exact matchings, greedy on ties.
	// Only that one is copied out of the arena.
	m, w := sc.arena.GreedyNext(s.fabric.N(), s.tr.glinks, nil, col)
	if s.opt.Matcher != MatcherGreedy {
		if xm, xw := sc.arena.MaxWeightBipartite(s.fabric.N(), sc.weighted(s.tr.glinks, col)); xw > w {
			m, w = xm, xw
		}
	}
	return appendLinks(nil, m), w
}

// rowColUB is a cheap upper bound on the maximum-weight matching of links
// weighted w (non-positive weights left out): the smaller of the row-maxima
// sum and the column-maxima sum. rowMax and colMax are caller-owned all-zero
// arrays indexed by node, of one length; only positive weights enter them,
// so the sums read them whole (n cells, not one per link) and clear them for
// the next call.
func rowColUB(links []matching.Edge, w []int64, rowMax, colMax []int64) int64 {
	for i, g := range w {
		if g > 0 {
			e := links[i]
			rowMax[e.From] = max(rowMax[e.From], g)
			colMax[e.To] = max(colMax[e.To], g)
		}
	}
	var rs, cs int64
	for v := range rowMax {
		rs, cs, rowMax[v], colMax[v] = rs+rowMax[v], cs+colMax[v], 0, 0
	}
	return min(rs, cs)
}

// appendLinks appends a matching to a link set (nil stays nil under an
// empty one). The links are NOT sorted: candidate link sets only feed
// best.consider (order-insensitive), and bestConfiguration sorts the single
// winning set before returning, which is cheaper than sorting every candidate.
func appendLinks(links []graph.Edge, m []matching.Edge) []graph.Edge {
	links = slices.Grow(links, len(m))
	for _, e := range m {
		links = append(links, graph.Edge{From: e.From, To: e.To})
	}
	return links
}

func sortLinks(links []graph.Edge) {
	slices.SortFunc(links, cmpEdge)
}

// cmpEdge orders edges by (From, To); link sets never repeat an edge, so
// the order is strict and the unstable sort is deterministic.
func cmpEdge(a, b graph.Edge) int {
	if a.From != b.From {
		return a.From - b.From
	}
	return a.To - b.To
}

// evalMultiPort greedily composes r edge-disjoint matchings (§7, K ports
// per node). Committed subflows queue on exactly one link, so matchings
// over disjoint edge sets serve disjoint packet sets and benefits add
// exactly; no weight recomputation is needed between the r rounds.
func (s *Scheduler) evalMultiPort(sc *evalScratch, col []int64) ([]graph.Edge, int64) {
	avail := sc.weighted(s.tr.glinks, col)
	if len(avail) == 0 {
		return nil, 0
	}
	n := s.fabric.N()
	if sc.taken == nil {
		sc.taken = make([]bool, s.fabric.M())
	}
	taken := sc.taken
	var links []graph.Edge
	var total int64
	for r := 0; r < s.opt.Ports; r++ {
		var m []matching.Edge
		var w int64
		if s.opt.Matcher == MatcherGreedy {
			m, w = sc.arena.GreedyBipartite(n, avail)
		} else {
			m, w = sc.arena.MaxWeightBipartite(n, avail)
		}
		if w <= 0 {
			break
		}
		total += w
		for _, e := range m {
			taken[s.fabric.LinkID(e.From, e.To)] = true
			links = append(links, graph.Edge{From: e.From, To: e.To})
		}
		// Drop the matched links in place: the matchers copy what they keep,
		// and the list is rebuilt for every column.
		next := avail[:0]
		for _, e := range avail {
			if !taken[s.fabric.LinkID(e.From, e.To)] {
				next = append(next, e)
			}
		}
		avail = next
	}
	for _, l := range links {
		taken[s.fabric.LinkID(l.From, l.To)] = false
	}
	return links, total
}
