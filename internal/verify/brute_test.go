package verify

import (
	"fmt"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// BruteOptions configures the exhaustive reference solver. The zero value
// of every limit selects a default sized for the solver's feasible
// envelope (~4 nodes, W ≈ 10, a dozen packets).
type BruteOptions struct {
	Window int // W, the scheduling window in time slots (required)
	Delta  int // Δ, the reconfiguration delay in time slots

	// MaxNodes / MaxWindow / MaxPackets bound the accepted instance size
	// (defaults 4 / 12 / 12): beyond them the state space explodes and
	// BruteForce returns an error instead of hanging.
	MaxNodes   int
	MaxWindow  int
	MaxPackets int

	// MaxStates caps the number of distinct memoized states per objective
	// (default 1<<21); exceeding it returns an error.
	MaxStates int
}

// BruteResult reports the true optima of an MHS instance.
type BruteResult struct {
	PsiOpt       int64 // OPT(ψ), in traffic.WeightScale units
	DeliveredOpt int   // OPT(throughput): max packets deliverable
	States       int   // distinct states explored across both searches
}

// hopQueue is one (flow, position) bucket of waiting packets during the
// search, tied to the link its next hop uses.
type hopQueue struct {
	flow  int // index into bruteState.flows
	pos   int
	link  graph.Edge
	value int64 // objective value of advancing one packet from pos
}

type bruteFlow struct {
	route  traffic.Route
	weight int64
	hops   int
}

type bruteState struct {
	opt          BruteOptions
	flows        []bruteFlow
	counts       [][]int // counts[f][pos] = packets of flow f at route position pos
	memo         map[string]int64
	states       int
	overLimit    bool
	psiObjective bool
}

// BruteForce exhaustively solves the MHS instance (g, load) under opt by
// memoized search over configuration sequences: every maximal matching of
// the links with waiting traffic, every duration α, and every way of
// splitting each link's α-slot capacity among the subflows queued at it.
// Configurations use the base bulk semantics of the paper's §3 (a packet
// advances at most one hop per configuration), the setting of the
// Theorem 1 guarantee.
//
// It returns OPT(ψ) and OPT(throughput), each from its own search — the
// two optima are generally achieved by different schedules. Only
// single-route, single-port instances within the size limits are accepted.
func BruteForce(g *graph.Digraph, load *traffic.Load, opt BruteOptions) (*BruteResult, error) {
	if opt.Window <= 0 {
		return nil, fmt.Errorf("verify: brute force needs a positive window")
	}
	if opt.Delta < 0 {
		return nil, fmt.Errorf("verify: negative delta %d", opt.Delta)
	}
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 4
	}
	if opt.MaxWindow == 0 {
		opt.MaxWindow = 12
	}
	if opt.MaxPackets == 0 {
		opt.MaxPackets = 12
	}
	if opt.MaxStates == 0 {
		opt.MaxStates = 1 << 21
	}
	if g.N() > opt.MaxNodes {
		return nil, fmt.Errorf("verify: %d nodes exceed the brute-force envelope of %d", g.N(), opt.MaxNodes)
	}
	if opt.Window > opt.MaxWindow {
		return nil, fmt.Errorf("verify: window %d exceeds the brute-force envelope of %d", opt.Window, opt.MaxWindow)
	}
	if total := load.TotalPackets(); total > opt.MaxPackets {
		return nil, fmt.Errorf("verify: %d packets exceed the brute-force envelope of %d", total, opt.MaxPackets)
	}
	if err := checkLoad(g, load); err != nil {
		return nil, err
	}
	for i := range load.Flows {
		if len(load.Flows[i].Routes) != 1 {
			return nil, fmt.Errorf("verify: brute force supports single-route loads only (flow %d has %d routes)",
				load.Flows[i].ID, len(load.Flows[i].Routes))
		}
	}

	res := &BruteResult{}
	for _, psiObjective := range []bool{true, false} {
		st := newBruteState(load, opt, psiObjective)
		best := st.search(opt.Window)
		if st.overLimit {
			return nil, fmt.Errorf("verify: brute force exceeded %d states", opt.MaxStates)
		}
		res.States += st.states
		if psiObjective {
			res.PsiOpt = best
		} else {
			res.DeliveredOpt = int(best)
		}
	}
	return res, nil
}

func newBruteState(load *traffic.Load, opt BruteOptions, psiObjective bool) *bruteState {
	st := &bruteState{opt: opt, memo: make(map[string]int64)}
	for i := range load.Flows {
		f := &load.Flows[i]
		r := f.Routes[0]
		st.flows = append(st.flows, bruteFlow{route: r, weight: traffic.Weight(f.WeightLen(r)), hops: r.Hops()})
		counts := make([]int, r.Hops())
		counts[0] = f.Size
		st.counts = append(st.counts, counts)
	}
	st.psiObjective = psiObjective
	return st
}

// key encodes the mutable search state (positions + remaining slots).
func (st *bruteState) key(remaining int) string {
	buf := make([]byte, 0, 16)
	buf = append(buf, byte(remaining))
	for _, counts := range st.counts {
		for _, c := range counts {
			buf = append(buf, byte(c))
		}
		buf = append(buf, 0xff)
	}
	return string(buf)
}

// hopValue returns the objective value of advancing one packet of flow f
// from position pos: its ψ weight under the ψ objective, or 1 on the
// delivering hop under the throughput objective.
func (st *bruteState) hopValue(f, pos int) int64 {
	if st.psiObjective {
		return st.flows[f].weight
	}
	if pos+1 == st.flows[f].hops {
		return 1
	}
	return 0
}

// search returns the best attainable objective value from the current
// packet positions with the given remaining slots.
func (st *bruteState) search(remaining int) int64 {
	if st.overLimit || remaining < st.opt.Delta+1 {
		return 0
	}
	k := st.key(remaining)
	if v, ok := st.memo[k]; ok {
		return v
	}
	if len(st.memo) >= st.opt.MaxStates {
		st.overLimit = true
		return 0
	}
	st.memo[k] = 0 // placeholder; also terminates on revisits
	st.states++

	// The links with waiting traffic, and who waits at each.
	var queues []hopQueue
	byLink := make(map[graph.Edge][]int) // link -> indices into queues
	var links []graph.Edge
	for f := range st.counts {
		for pos, c := range st.counts[f] {
			if c == 0 {
				continue
			}
			r := st.flows[f].route
			e := graph.Edge{From: r[pos], To: r[pos+1]}
			if byLink[e] == nil {
				links = append(links, e)
			}
			byLink[e] = append(byLink[e], len(queues))
			queues = append(queues, hopQueue{flow: f, pos: pos, link: e, value: st.hopValue(f, pos)})
		}
	}
	best := int64(0)
	if len(links) == 0 {
		st.memo[k] = 0
		return 0
	}

	forEachMaximalMatching(links, func(m []graph.Edge) {
		// Dominance: α beyond the longest queue in the matching only burns
		// slots, so cap it there.
		maxAlpha := remaining - st.opt.Delta
		maxUseful := 0
		for _, e := range m {
			waiting := 0
			for _, qi := range byLink[e] {
				waiting += st.counts[queues[qi].flow][queues[qi].pos]
			}
			if waiting > maxUseful {
				maxUseful = waiting
			}
		}
		if maxUseful < maxAlpha {
			maxAlpha = maxUseful
		}
		for alpha := 1; alpha <= maxAlpha; alpha++ {
			st.allocate(m, 0, alpha, byLink, queues, 0, remaining-alpha-st.opt.Delta, &best)
		}
	})
	st.memo[k] = best
	return best
}

// allocate branches over every way of splitting each matching link's α-slot
// capacity among the subflows queued at it (links are independent given the
// matching; their allocations multiply). At the leaf it recurses with the
// packets advanced.
func (st *bruteState) allocate(m []graph.Edge, li, alpha int, byLink map[graph.Edge][]int, queues []hopQueue, gained int64, nextRemaining int, best *int64) {
	if st.overLimit {
		return
	}
	if li == len(m) {
		if v := gained + st.search(nextRemaining); v > *best {
			*best = v
		}
		return
	}
	qis := byLink[m[li]]
	// Per-link total service is forced maximal: serving fewer packets than
	// capacity allows never helps (an exchange argument — the skipped
	// packet could always have been advanced and served identically
	// later), so only the split among subflows is branched.
	waiting := 0
	for _, qi := range qis {
		waiting += st.counts[queues[qi].flow][queues[qi].pos]
	}
	total := alpha
	if waiting < total {
		total = waiting
	}
	st.split(qis, 0, total, m, li, alpha, byLink, queues, gained, nextRemaining, best)
}

// split distributes exactly `left` served packets among qis[qi:].
func (st *bruteState) split(qis []int, qi, left int, m []graph.Edge, li, alpha int, byLink map[graph.Edge][]int, queues []hopQueue, gained int64, nextRemaining int, best *int64) {
	if st.overLimit {
		return
	}
	if qi == len(qis) {
		if left == 0 {
			st.allocate(m, li+1, alpha, byLink, queues, gained, nextRemaining, best)
		}
		return
	}
	q := &queues[qis[qi]]
	avail := st.counts[q.flow][q.pos]
	// Lower bound: later subflows must be able to absorb the rest.
	rest := 0
	for _, later := range qis[qi+1:] {
		rest += st.counts[queues[later].flow][queues[later].pos]
	}
	lo := left - rest
	if lo < 0 {
		lo = 0
	}
	hi := avail
	if hi > left {
		hi = left
	}
	for take := lo; take <= hi; take++ {
		st.counts[q.flow][q.pos] -= take
		deliveredHop := q.pos+1 == st.flows[q.flow].hops
		if !deliveredHop {
			st.counts[q.flow][q.pos+1] += take
		}
		st.split(qis, qi+1, left-take, m, li, alpha, byLink, queues, gained+int64(take)*q.value, nextRemaining, best)
		if !deliveredHop {
			st.counts[q.flow][q.pos+1] -= take
		}
		st.counts[q.flow][q.pos] += take
	}
}

// forEachMaximalMatching enumerates every matching of links that is maximal
// within links (no listed link can be added), invoking fn for each.
func forEachMaximalMatching(links []graph.Edge, fn func([]graph.Edge)) {
	usedOut := make(map[int]bool)
	usedIn := make(map[int]bool)
	var cur []graph.Edge
	var rec func(i int)
	rec = func(i int) {
		if i == len(links) {
			for _, e := range links {
				if !usedOut[e.From] && !usedIn[e.To] {
					return // extensible: not maximal
				}
			}
			fn(cur)
			return
		}
		e := links[i]
		if !usedOut[e.From] && !usedIn[e.To] {
			usedOut[e.From], usedIn[e.To] = true, true
			cur = append(cur, e)
			rec(i + 1)
			cur = cur[:len(cur)-1]
			usedOut[e.From], usedIn[e.To] = false, false
		}
		rec(i + 1)
	}
	rec(0)
}
