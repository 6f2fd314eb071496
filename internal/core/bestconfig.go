package core

import (
	"cmp"
	"slices"

	"octopus/internal/graph"
	"octopus/internal/matching"
	"octopus/internal/par"
)

// evalScratch is one worker's scratch for the duration of a parallelFor:
// G′'s edge buffer, rowColUB's arrays, evalMultiPort's link marks, the
// matching arena and the worker's greedy incumbent. Nothing is shared.
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

// best is one iteration's incumbent: the highest benefit per unit cost yet.
type best struct {
	links   []graph.Edge
	alpha   int
	benefit int64
	delta   int
}

// consider takes (links, alpha, benefit) when it beats the incumbent. Ties
// keep the earlier candidate, so a fixed order makes the choice deterministic.
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

// exceeds reports whether the incumbent's ratio strictly exceeds (benefit,
// alpha)'s. On equal ratios neither it nor beats holds.
func (b *best) exceeds(benefit int64, alpha int) bool {
	if b.benefit == 0 {
		return false
	}
	return b.benefit*int64(alpha+b.delta) > benefit*int64(b.alpha+b.delta)
}

// alphaEval is one α's record in an iteration: the phase-1 candidate (the
// greedy matching in the single-port bipartite modes, its links only where a
// reduction can pick it; evalAlpha's otherwise) and, with the exact matcher,
// rowColUB and phase 2's exact matching.
type alphaEval struct {
	links      []graph.Edge
	w          int64
	ub         int64
	exactLinks []graph.Edge
	exactW     int64
}

// bestConfiguration implements Procedure 2 over Procedure 1's α's (DESIGN.md
// §4, §13.2). Phase 1 solves a greedy matching, and rowColUB for the exact
// matcher, at every α the per-port bound keeps; phase 2 solves exact
// matchings only where a bound can still win. The result is a sequential
// ascending-α scan of each α's greedy then exact matching, at any
// Parallelism; nil with benefit 0 when nothing can be served.
func (s *Scheduler) bestConfiguration(maxAlpha int) ([]graph.Edge, int, int64) {
	s.lastChanged = s.tr.takeChanged()
	alphas := s.tr.candidateAlphas(maxAlpha)
	s.lastCandidates, s.lastEvaluated, s.lastPruned = len(alphas), 0, 0
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
	twoPhase := bipartite && s.opt.Matcher != MatcherGreedy

	// Phase 1: the per-port bound drops the α's that cannot win, then runs
	// of the others carry their greedy matching (GreedyNext). A link set
	// leaves its arena only when it beats its worker's incumbent (§4).
	if bipartite {
		var p int
		alphas, p = s.pruneAlphas(alphas, evals)
		evals = evals[:len(alphas)]
		rest := append(append(s.restBuf[:0], alphas[:p]...), alphas[p+1:]...)
		s.restBuf = rest
		for _, sc := range s.scratch {
			sc.local.benefit = 0
		}
		s.forAlphas(rest, alphaRuns, func(sc *evalScratch, i int, prev, col []int64) {
			if i >= p {
				i++ // rest skips the probe
			}
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
	s.evals, s.lastEvaluated = evals, len(alphas)
	seed := &best{delta: s.opt.Delta}
	for i, a := range alphas {
		seed.consider(evals[i].links, a, evals[i].w)
	}
	if !twoPhase {
		sortLinks(seed.links)
		return seed.links, seed.alpha, seed.benefit
	}
	// Phase 2 (§13.2): an exact solve where rowColUB beats the greedy seed
	// and the seed does not strictly exceed 2·greedy (a 1/2-approximation),
	// best bound first in chunks of 2, 4, then phase2Chunk; between chunks
	// an incumbent prunes the solves whose tighter bound it strictly exceeds.
	sel := s.selBuf[:0]
	for i := range alphas {
		if seed.beats(evals[i].ub, alphas[i]) && !seed.exceeds(2*evals[i].w, alphas[i]) {
			sel = append(sel, i)
		}
	}
	s.selBuf = sel
	slices.SortFunc(sel, func(x, y int) int {
		bx := evals[x].ub * int64(alphas[y]+s.opt.Delta)
		by := evals[y].ub * int64(alphas[x]+s.opt.Delta)
		return cmp.Or(cmp.Compare(by, bx), alphas[x]-alphas[y])
	})
	inc := *seed
	solved := 0
	for lo, size := 0, 2; lo < len(sel); size = min(2*size, phase2Chunk) {
		hi := min(lo+size, len(sel))
		k := lo
		for _, i := range sel[lo:hi] {
			if !inc.exceeds(min(evals[i].ub, 2*evals[i].w), alphas[i]) {
				sel[k] = i
				k++
			}
		}
		slices.Sort(sel[lo:k]) // a g-table block wants ascending α's
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
	for i, a := range alphas {
		bst.consider(evals[i].links, a, evals[i].w)
		bst.consider(evals[i].exactLinks, a, evals[i].exactW)
	}
	sortLinks(bst.links)
	return bst.links, bst.alpha, bst.benefit
}

// pruneAlphas solves one probe, the α of the best bound ratio (the lowest on
// ties), and drops every α whose per-port bound the probe's greedy ratio
// strictly exceeds: no matching of it can win (DESIGN.md §4). alphas and
// evals are compacted in place, the probe's record at its new position p.
func (s *Scheduler) pruneAlphas(alphas []int, evals []alphaEval) (kept []int, p int) {
	bound := s.portBounds(alphas)
	for i, b := range bound {
		if b*int64(alphas[p]+s.opt.Delta) > bound[p]*int64(alphas[i]+s.opt.Delta) {
			p = i
		}
	}
	s.ensureScratch(1) // forAlphas' closures would cost the probe four allocations
	s.fillG(s.tr.activeStates(), alphas[p:p+1])
	sc, col := s.scratch[0], s.gbuf[:len(s.tr.glinks)]
	m, w := sc.arena.GreedyNext(s.fabric.N(), s.tr.glinks, nil, col)
	probe, inc := alphaEval{links: appendLinks(nil, m), w: w}, best{delta: s.opt.Delta, alpha: alphas[p], benefit: w}
	if s.opt.Matcher != MatcherGreedy {
		probe.ub = rowColUB(s.tr.glinks, col, sc.row, sc.col)
	}
	for i, a := range alphas {
		if i == p {
			p = len(kept)
		} else if inc.exceeds(bound[i], a) {
			continue
		}
		kept = append(alphas[:len(kept)], a)
	}
	evals[p], s.lastPruned = probe, len(alphas)-len(kept)
	s.prunedAlpha += int64(s.lastPruned)
	return kept, p
}

// portCap is a port's B and T, or a step of the sums at one α.
type portCap struct{ b, t int64 }

// portBounds returns bound(α) for each α of as (ascending): the smaller of
// Σ_u min(α·B_u, T_u) over the From nodes and over the To nodes, B_u the
// heaviest live packet on u's links, T_u their largest queue benefit. A port
// adds α·B_u up to α = ⌊T_u/B_u⌋ and T_u beyond, so each moves from the one
// sum to the other once, at the first such α of as. The result aliases a
// buffer valid until the next call.
func (s *Scheduler) portBounds(as []int) []int64 {
	n := s.fabric.N()
	caps := slices.Grow(s.caps[:0], 2*n+len(as)+1)[:2*n+len(as)+1]
	clear(caps)
	for _, ls := range s.tr.activeStates() {
		cs := ls.classes
		if len(cs) == 0 || cs[len(cs)-1].prefC == 0 {
			continue
		}
		k := 0
		for cs[k].count == 0 {
			k++
		}
		for _, v := range [2]int{ls.edge.From, n + ls.edge.To} {
			caps[v].b, caps[v].t = max(caps[v].b, cs[k].bw), max(caps[v].t, cs[len(cs)-1].prefB)
		}
	}
	bound, steps := slices.Grow(s.bounds[:0], len(as))[:len(as)], caps[2*n:]
	for side := range 2 {
		clear(steps)
		var sumB, sumT int64
		for _, c := range caps[side*n : (side+1)*n] {
			if c.b > 0 {
				i, _ := slices.BinarySearch(as, int(c.t/c.b)+1)
				sumB, steps[i].b, steps[i].t = sumB+c.b, steps[i].b-c.b, steps[i].t+c.t
			}
		}
		for i, a := range as {
			sumB, sumT = sumB+steps[i].b, sumT+steps[i].t
			if b := int64(a)*sumB + sumT; side == 0 || b < bound[i] {
				bound[i] = b
			}
		}
	}
	s.caps, s.bounds = caps, bound
	return bound
}

// phase2Chunk is the most exact solves phase 2 launches between incumbent
// updates (the first two chunks are 2 and 4).
const phase2Chunk = 8

// gTableEntries caps a g-table block at 8 MiB of int64 (or one α's column).
const gTableEntries = 1 << 20

// forAlphas calls f(scratch, j, prev, col) for every j in [0, len(as)), col
// being α = as[j]'s g-table column, col[i] = g(s.tr.glinks[i], α) — the one
// source of G′. as ascends; it is cut into blocks the table holds, a block
// into min(runs, its size) runs of consecutive α's, each run walked by one
// worker in ascending α. prev is the run's previous column (empty at its
// first α). The runs do not depend on the worker count.
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

// alphaRuns is the runs a phase-1 block is cut into, each carrying its greedy
// matching from α to α.
const alphaRuns = 8

// fillLinks is the number of links one fillG work item covers.
const fillLinks = 1024

// fillG sets s.gbuf[j*len(states)+li] = g(states[li], block[j]), a column
// contiguous as forAlphas reads it. Links are filled in parallel, fillLinks
// at a time; only apply writes the classes, so nothing is shared.
func (s *Scheduler) fillG(states []*linkState, block []int) {
	nL := len(states)
	if need := len(block) * nL; cap(s.gbuf) < need {
		// Head-room: need creeps up as packets reach new links.
		s.gbuf = make([]int64, need+need/4)
	}
	s.parallelFor((nL+fillLinks-1)/fillLinks, func(_, c int) {
		for li := c * fillLinks; li < min((c+1)*fillLinks, nL); li++ {
			fillLink(s.gbuf[li:], nL, states[li].classes, block)
		}
	})
}

// fillLink writes g(link, block[j]) to col[j*stride], cs being the link's
// classes and block ascending. g(l, α), the benefit of the top α packets of
// l's queue (Procedure 2, line 4), is every class heavier than the first
// class k whose prefix count reaches α, plus a partial take of k.
func fillLink(col []int64, stride int, cs []weightClass, block []int) {
	var top weightClass // an empty queue: g is 0 at every α
	if len(cs) > 0 {
		top = cs[len(cs)-1]
	}
	k := 0
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
// shared pool, worker owning s.scratch[worker]; T^r is read-only meanwhile.
func (s *Scheduler) parallelFor(n int, f func(worker, i int)) {
	s.ensureScratch(par.Workers(s.opt.Parallelism, n))
	par.For(s.opt.Parallelism, n, f)
}

// ensureScratch grows the scratch pool to `workers` entries, single-threaded.
func (s *Scheduler) ensureScratch(workers int) {
	for len(s.scratch) < workers {
		s.scratch = append(s.scratch, &evalScratch{
			row:   make([]int64, s.fabric.N()),
			col:   make([]int64, s.fabric.N()),
			local: best{delta: s.opt.Delta},
		})
	}
}

// ternarySearch finds a local maximum of the ratio over the sorted α's with
// O(log |A|) evaluations (Octopus-B); §8 finds the loss against the global
// one minimal.
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
		s.lastEvaluated++
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
// α's g-table column, in every mode but the bipartite phase 1. The chained
// benefit is a chain estimate, not g, so that mode leaves col unread.
func (s *Scheduler) evalAlpha(sc *evalScratch, a int, col []int64) ([]graph.Edge, int64) {
	switch {
	case s.opt.MultiHop:
		return s.chainedGreedy(a)
	case s.opt.Ports > 1:
		return s.evalMultiPort(sc, col)
	}
	// One port: the better of the greedy and exact matchings, greedy on ties.
	m, w := sc.arena.GreedyNext(s.fabric.N(), s.tr.glinks, nil, col)
	if s.opt.Matcher != MatcherGreedy {
		if xm, xw := sc.arena.MaxWeightBipartite(s.fabric.N(), sc.weighted(s.tr.glinks, col)); xw > w {
			m, w = xm, xw
		}
	}
	return appendLinks(nil, m), w
}

// rowColUB bounds the maximum-weight matching of links weighted w by the
// smaller of the row-maxima and column-maxima sums of the positive weights.
// rowMax and colMax are all-zero arrays by node, read whole and cleared.
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

// appendLinks appends a matching to a link set, unsorted: bestConfiguration
// sorts only the winning set.
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

// cmpEdge orders edges by (From, To), strictly: a link set repeats no edge.
func cmpEdge(a, b graph.Edge) int {
	if a.From != b.From {
		return a.From - b.From
	}
	return a.To - b.To
}

// evalMultiPort greedily composes r edge-disjoint matchings (§7). A committed
// subflow queues on one link, so disjoint matchings serve disjoint packets
// and their benefits add: no weights are recomputed between rounds.
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
		// Drop the matched links in place (the matchers copy what they keep).
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
