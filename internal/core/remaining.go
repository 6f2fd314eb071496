package core

import (
	"cmp"
	"slices"

	"octopus/internal/graph"
	"octopus/internal/matching"
	"octopus/internal/par"
	"octopus/internal/traffic"
)

// sfKey identifies a subflow of the remaining traffic T^r: packets of one
// flow that have committed to one route and sit at the same position along
// it. routeID is the index into Flow.Routes, or -1 for packets still at
// their source with the route choice open (Octopus+ only).
type sfKey struct {
	flowID  int
	routeID int
	pos     int
}

// subflow is a group of identical packets of the remaining traffic. It holds
// indices, not pointers: the collector never scans T^r, and the arrays it
// lives in can grow (or be written out) without anything to fix up.
type subflow struct {
	flow    int32 // index into load.Flows
	routeID int32 // index into the flow's Routes, -1 while uncommitted
	// pos is the hop the packets wait to take and hops the length of their
	// route (0 while uncommitted), both at most traffic.MaxRouteLen: serving
	// a subflow does not have to visit its flow to know a packet has arrived.
	pos, hops int16
	count     int32 // at most the flow's Size, which New caps at MaxInt32
	// frozen is the number of packets that arrived during the
	// configuration currently being applied; they may not move again until
	// the next configuration (a packet traverses at most one hop per
	// configuration in the plan bookkeeping).
	frozen int32
	// next and alt are the flow's position chain, which stands in for a map
	// keyed by sfKey. next is the subflow one hop further along the route
	// (0 until a packet gets there: index 0 is a flow's initial subflow and
	// nobody's successor). Only an uncommitted subflow can have several
	// successors, one per route its packets have committed to: next is the
	// newest and alt links each to the one created before it.
	next, alt int32
	// The subflow's entries are entries[homes : homes+nHomes], and
	// remaining.homes, index-aligned with entries, names the link each one
	// queues on. A count change moves exactly these links' weight classes.
	homes, nHomes int32
}

// key returns the subflow's identity as the service trace records it.
func (tr *remaining) key(sf subflow) sfKey {
	return sfKey{tr.flows[sf.flow].ID, int(sf.routeID), int(sf.pos)}
}

// successor returns the subflow that packets served from subflow si along
// route routeID join, or 0 if none has been created yet.
func (tr *remaining) successor(si, routeID int32) int32 {
	d := tr.subflows[si].next
	for d != 0 && tr.subflows[d].routeID != routeID {
		d = tr.subflows[d].alt
	}
	return d
}

// addCount changes subflow si's packet count by d and credits d to the
// weight class of each of its entries, on the links its homes window names.
func (tr *remaining) addCount(si, d int32) {
	sf := &tr.subflows[si]
	sf.count += d
	for k := sf.homes; k < sf.homes+sf.nHomes; k++ {
		tr.links[tr.homes[k]].credit(tr.entries[k].bw, int(d))
	}
}

// entry is one appearance of a subflow in a link's virtual output queue.
// A committed subflow has one entry (on its next-hop link) plus, with
// backtracking enabled, one on the direct source->destination link. An
// uncommitted subflow has one entry per distinct candidate first-hop link.
type entry struct {
	// bw is the per-packet benefit weight at this link (includes the
	// Octopus-e ε hop bonus); queues order by bw desc, then flow ID asc.
	bw int64
	// pw is the per-packet base ψ weight of the route this entry advances
	// the packet along (no ε), used for ψ accounting.
	pw int64
	sf int32 // index into remaining.subflows
	// routeID is the route the packet commits to when served through this
	// entry (meaningful for uncommitted subflows; equals the subflow's own
	// otherwise). backtrackRoute marks a direct-link entry that annuls the
	// packet's prior multi-hop progress when served (Octopus+ §6).
	routeID int32
}

const backtrackRoute = -1

func (en entry) backtrack() bool { return en.routeID == backtrackRoute }

// weightClass is one benefit-weight class of a link's queue: the live
// packets of every entry of weight bw, and the packets and benefit of this
// class and every heavier one. The queue serves by bw first, so a class is a
// contiguous run of it, and everything the greedy loop asks of the queue
// reads the classes alone: g(l, α) is piecewise linear with its breakpoints
// at the class ends (gValueState), and the Procedure-1 α boundaries are the
// prefix counts of the non-empty classes (candidateAlphas).
type weightClass struct {
	bw    int64
	count int   // live packets of the class (a queue's total can pass 32 bits)
	prefC int   // live packets of this class and every heavier one
	prefB int64 // their benefit, Σ count·bw
}

// linkState is the priority queue of entries for one directed link.
type linkState struct {
	tr      *remaining
	edge    graph.Edge
	entries []int32 // indices into tr.entries, in priority order
	// classes holds one cell per benefit weight among the queue's entries,
	// drained ones included, bw descending. Every packet-count change of an
	// entry is credited to its class as it happens (credit), so the cells are
	// always exact: nothing is rebuilt, and the parallel evaluation phase
	// reads what apply left.
	classes []weightClass
	// changed marks a link credited since the last iteration began (the
	// octopus_core_summary_rebuilds_total count); set by credit and when the
	// link first holds an entry, by one goroutine at a time.
	changed bool
}

// credit adds d live packets of weight bw to the link's classes, inserting
// the class if no entry of that weight has queued here before, and moves the
// prefixes of the class and every lighter one with them.
func (ls *linkState) credit(bw int64, d int) {
	cs := ls.classes
	i := len(cs) - 1
	for i >= 0 && cs[i].bw < bw {
		i--
	}
	if i < 0 || cs[i].bw != bw {
		i++
		c := weightClass{bw: bw}
		if i > 0 {
			c.prefC, c.prefB = cs[i-1].prefC, cs[i-1].prefB
		}
		cs = slices.Insert(cs, i, c)
		ls.classes = cs
	}
	cs[i].count += d
	for j := i; j < len(cs); j++ {
		cs[j].prefC += d
		cs[j].prefB += int64(d) * bw
	}
	ls.changed = true
}

// cmpEntries orders entries by (bw desc, flow ID asc, pos asc).
func (tr *remaining) cmpEntries(a, b int32) int {
	ea, eb := &tr.entries[a], &tr.entries[b]
	if ea.bw != eb.bw {
		return cmp.Compare(eb.bw, ea.bw)
	}
	sa, sb := &tr.subflows[ea.sf], &tr.subflows[eb.sf]
	if c := cmp.Compare(tr.flows[sa.flow].ID, tr.flows[sb.flow].ID); c != 0 {
		return c
	}
	return cmp.Compare(sa.pos, sb.pos)
}

func (ls *linkState) insert(e int32) {
	i, _ := slices.BinarySearchFunc(ls.entries, e, ls.tr.cmpEntries) // before its equals, if any
	ls.entries = slices.Insert(ls.entries, i, e)
}

// Entries are never removed from a queue: a subflow drained now can be
// refilled later by upstream arrivals of the same flow, and its entry must
// still be present. Zero-count entries are skipped during iteration, and a
// drained class keeps its cell; the total number of entries is bounded by
// the number of subflows (|T|·𝒟).

// servedRecord traces one bulk packet movement for plan verification.
type servedRecord struct {
	Config    int // configuration index in the schedule
	Link      graph.Edge
	Key       sfKey
	RouteID   int
	Count     int
	Backtrack bool
}

// remaining is the remaining traffic load T^r plus the plan accounting the
// greedy loop maintains while building a schedule.
type remaining struct {
	g     *graph.Digraph
	flows []traffic.Flow // the load's, which subflow.flow indexes
	// links is indexed by graph.Digraph.LinkID; nil until the link first
	// holds an entry.
	links []*linkState
	// T^r proper: three pointer-free arrays that only grow. subflows[i], for
	// i < len(flows), is the initial subflow of flows[i] and the root of that
	// flow's position chain (see subflow.next); homes[k] is the id of the
	// link entries[k] queues on.
	subflows []subflow
	entries  []entry
	homes    []int32
	// stateList holds every non-nil element of links, sorted by edge once
	// activeEdges has run; edgeList is its edges, index-aligned, and glinks
	// the same as the matchers take them (what a g-table column is indexed by;
	// grouped by From, so the greedy matcher reads it in place).
	// Links that became active since are appended to stateList unsorted, so
	// stateList[:len(edgeList)] is always in order.
	stateList  []*linkState
	edgeList   []graph.Edge
	glinks     []matching.Edge
	edgesDirty bool
	mergeBuf   []*linkState // activeEdges' copy of the appended links
	stateSlab  []linkState  // link states are carved from chunks, see addEntry

	eps        int  // Octopus-e ε in 1/64 units
	multiRoute bool // Octopus+ first-hop route choice
	backtrack  bool // Octopus+ direct-link backtracking

	// Plan accounting (bookkeeping of the schedule under construction).
	psi       int64
	hops      int
	delivered int
	pending   int // packets not yet delivered

	trace     []servedRecord
	keepTrace bool
	configIdx int
	touched   []int32 // subflows with frozen packets from the current apply
	btBuf     []int   // per-link backtrack-pass service of the current apply

	// building is set while buildRemaining adds the load's entries, which
	// addEntry then records without queueing them (buildQueues does).
	building bool
	// alphaBuf is the reusable result buffer of candidateAlphas (the returned
	// slice aliases it and is valid until the next call) and alphaSeen its
	// marks, all false between calls.
	alphaBuf  []int
	alphaSeen []bool
}

// slabChunk is how many link states are allocated at a time.
const slabChunk = 64

// growRoom: T^r is built with 1/growRoom spare capacity for the subflows
// packets create as they move downstream. Without it the first arrival
// re-allocates and copies every array (85 MB on a million flows of which a
// plan moves eleven thousand further); past it append's growth takes over.
const growRoom = 8

// buildRemaining builds T^r = T on workers goroutines (0: GOMAXPROCS). Its
// allocations are O(links), not O(flows): subflows, entries, queue slots,
// homes and weight classes come from arrays sized up front. The caller has
// checked that the load's index widths fit (checkOptions).
func buildRemaining(g *graph.Digraph, load *traffic.Load, workers, eps int, multiRoute, backtrack, keepTrace bool) *remaining {
	nEntries := len(load.Flows)
	if multiRoute {
		nEntries = 0
		for i := range load.Flows {
			nEntries += len(load.Flows[i].Routes)
		}
	}
	tr := &remaining{
		g:          g,
		flows:      load.Flows,
		links:      make([]*linkState, g.M()),
		subflows:   make([]subflow, len(load.Flows), len(load.Flows)+len(load.Flows)/growRoom),
		entries:    make([]entry, 0, nEntries+nEntries/growRoom),
		homes:      make([]int32, 0, nEntries+nEntries/growRoom),
		eps:        eps,
		multiRoute: multiRoute,
		backtrack:  backtrack,
		keepTrace:  keepTrace,
		building:   true,
	}
	ascending := true // flow IDs, in load order
	for i := range load.Flows {
		f := &load.Flows[i]
		tr.pending += f.Size
		sf := &tr.subflows[i]
		*sf = subflow{flow: int32(i), count: int32(f.Size), homes: int32(len(tr.homes))}
		if tr.multiRoute && len(f.Routes) > 1 {
			sf.routeID = -1
			tr.addUncommittedEntries(int32(i))
		} else {
			sf.hops = int16(f.Routes[0].Hops())
			tr.addCommittedEntry(int32(i))
		}
		ascending = ascending && (i == 0 || load.Flows[i-1].ID < f.ID)
	}
	tr.building = false
	tr.buildQueues(workers, ascending)
	return tr
}

// buildQueues deals the entries out to their links in load order. Then a
// worker takes each run of links: it sorts each queue once and counts the
// run's weight classes, carves their cells out of one array, and credits
// each entry's packets to its class as every later count change is
// credited. Every flow queues at most once on a link, so (bw desc, flow ID
// asc) is a strict order the sort reproduces exactly; where load order is
// ID order too (every generator and codec), only bw is left to sort by.
func (tr *remaining) buildQueues(workers int, ascending bool) {
	b := par.Deal(workers, len(tr.homes), len(tr.links), func(k int) int32 { return tr.homes[k] })
	byPriority := tr.cmpEntries
	if ascending {
		byPriority = func(a, b int32) int { return cmp.Compare(tr.entries[b].bw, tr.entries[a].bw) }
	}
	b.Each(workers, func(lo, hi int) {
		n := 0
		for id := lo; id < hi; id++ {
			q := b.Of(id)
			slices.SortStableFunc(q, byPriority)
			for i, ei := range q {
				if i == 0 || tr.entries[ei].bw != tr.entries[q[i-1]].bw {
					n++
				}
			}
		}
		cells := make([]weightClass, n)
		for id := lo; id < hi; id++ {
			if ls := tr.links[id]; ls != nil {
				ls.entries, ls.classes = b.Of(id), cells[:0:len(cells)]
				for _, ei := range ls.entries {
					ls.credit(tr.entries[ei].bw, int(tr.subflows[tr.entries[ei].sf].count))
				}
				ls.classes, cells = slices.Clip(ls.classes), cells[len(ls.classes):]
			}
		}
	})
}

// hopBW returns the benefit weight of the hop at index pos of an l-hop
// route under the current ε.
func (tr *remaining) hopBW(l, pos int) int64 { return traffic.HopWeight(l, pos, tr.eps) }

// state returns the queue of link e, or nil if e is not a fabric link or
// has never held an entry.
func (tr *remaining) state(e graph.Edge) *linkState {
	id := tr.g.LinkID(e.From, e.To)
	if id < 0 {
		return nil
	}
	return tr.links[id]
}

// addEntry queues en on fabric link e, credits the subflow's packets to the
// entry's weight class there, and records the link as a home of the subflow
// so that count changes reach the class. A subflow's entries are added back
// to back, right after it is created, which is what makes them a window.
func (tr *remaining) addEntry(e graph.Edge, en entry) {
	id := tr.g.LinkID(e.From, e.To)
	ls := tr.links[id]
	if ls == nil {
		if len(tr.stateSlab) == 0 {
			tr.stateSlab = make([]linkState, slabChunk)
		}
		ls, tr.stateSlab = &tr.stateSlab[0], tr.stateSlab[1:]
		ls.tr, ls.edge, ls.changed = tr, e, true
		tr.links[id] = ls
		tr.stateList = append(tr.stateList, ls)
		tr.edgesDirty = true
	}
	k := int32(len(tr.entries))
	tr.entries = append(tr.entries, en)
	tr.homes = append(tr.homes, int32(id))
	tr.subflows[en.sf].nHomes++
	if !tr.building {
		ls.insert(k)
		ls.credit(en.bw, int(tr.subflows[en.sf].count))
	}
}

// addCommittedEntry queues committed subflow si on its next-hop link and,
// when backtracking applies, on the direct source->destination link.
func (tr *remaining) addCommittedEntry(si int32) {
	sf := tr.subflows[si]
	f := &tr.flows[sf.flow]
	route := f.Routes[sf.routeID]
	l, pos := f.WeightLen(route), int(sf.pos)
	e := graph.Edge{From: route[pos], To: route[pos+1]}
	tr.addEntry(e, entry{sf: si, bw: tr.hopBW(l, pos), pw: traffic.Weight(l), routeID: sf.routeID})
	if tr.backtrack && pos > 0 && tr.g.HasEdge(f.Src, f.Dst) {
		direct := graph.Edge{From: f.Src, To: f.Dst}
		tr.addEntry(direct, entry{sf: si, bw: tr.hopBW(1, 0), pw: traffic.Weight(1), routeID: backtrackRoute})
	}
}

// addUncommittedEntries queues uncommitted source subflow si once on each
// distinct candidate first-hop link. When several candidate routes share a
// first hop, the packet is considered only once on that link (paper §6,
// "Allowing Routes with Common First Hops"); we credit it with the best
// (shortest-route) weight among them and commit to that route when served.
func (tr *remaining) addUncommittedEntries(si int32) {
	f := &tr.flows[tr.subflows[si].flow]
	firstHop := func(ri int) graph.Edge { return graph.Edge{From: f.Routes[ri][0], To: f.Routes[ri][1]} }
	var best []int // per first hop, in link order, its shortest route
	for ri, r := range f.Routes {
		j, found := slices.BinarySearchFunc(best, firstHop(ri), func(b int, e graph.Edge) int { return cmpEdge(firstHop(b), e) })
		if !found {
			best = slices.Insert(best, j, ri)
		} else if r.Hops() < f.Routes[best[j]].Hops() {
			best[j] = ri
		}
	}
	for _, ri := range best {
		l := f.WeightLen(f.Routes[ri])
		tr.addEntry(firstHop(ri), entry{sf: si, bw: tr.hopBW(l, 0), pw: traffic.Weight(l), routeID: int32(ri)})
	}
}

// activeEdges returns the sorted list of links with at least one entry. The
// links that became active since the last call (a few hundred of tens of
// thousands, an iteration) are sorted on their own and merged into the
// sorted rest from the back, in place.
func (tr *remaining) activeEdges() []graph.Edge {
	if tr.edgesDirty {
		byEdge := func(a, b *linkState) int { return cmpEdge(a.edge, b.edge) }
		old := len(tr.edgeList)
		fresh := append(tr.mergeBuf[:0], tr.stateList[old:]...)
		slices.SortFunc(fresh, byEdge)
		for i, w := old-1, len(tr.stateList)-1; len(fresh) > 0; w-- {
			if j := len(fresh) - 1; i < 0 || byEdge(tr.stateList[i], fresh[j]) < 0 {
				tr.stateList[w], fresh = fresh[j], fresh[:j]
			} else {
				tr.stateList[w] = tr.stateList[i]
				i--
			}
		}
		tr.mergeBuf = fresh
		tr.edgeList, tr.glinks = tr.edgeList[:0], tr.glinks[:0]
		for _, ls := range tr.stateList {
			tr.edgeList = append(tr.edgeList, ls.edge)
			tr.glinks = append(tr.glinks, matching.Edge{From: ls.edge.From, To: ls.edge.To})
		}
		tr.edgesDirty = false
	}
	return tr.edgeList
}

// activeStates returns the link states of activeEdges(), index-aligned with
// it, so hot loops over the active links skip the per-edge lookup.
func (tr *remaining) activeStates() []*linkState {
	tr.activeEdges()
	return tr.stateList
}

// takeChanged returns how many links were credited since the last call, and
// clears their marks.
func (tr *remaining) takeChanged() int {
	n := 0
	for _, ls := range tr.activeStates() {
		if ls.changed {
			ls.changed = false
			n++
		}
	}
	return n
}

// gValueState computes g(i, j, α): the maximum benefit weight of α packets
// queued on the link (Procedure 2, line 4). Each packet is counted once
// even if it has entries with several candidate routes on other links.
// The top α packets in queue order are all of the classes heavier than the
// first class k whose prefix count reaches α, plus a partial take of k; a
// class found that way is never empty, so drained cells cost nothing.
func gValueState(ls *linkState, alpha int) int64 {
	cs := ls.classes
	if alpha <= 0 || len(cs) == 0 {
		return 0
	}
	if top := &cs[len(cs)-1]; alpha >= top.prefC {
		return top.prefB
	}
	k := 0
	for cs[k].prefC < alpha {
		k++
	}
	return cs[k].prefB - int64(cs[k].prefC-alpha)*cs[k].bw
}

// candidateAlphas implements Procedure 1 (SetOfAlphas): for every link, the
// prefix sums of queued packet counts at each benefit-weight class
// boundary — the prefix counts of its non-empty classes. Values are clamped
// to maxAlpha and deduplicated; the result is sorted ascending.
//
// Clamped, the boundaries are at most maxAlpha, so the union is marked in
// an array of that many cells (of the largest queue's total, where that is
// less) and read off in order. The returned slice aliases an internal
// buffer valid until the next call.
func (tr *remaining) candidateAlphas(maxAlpha int) []int {
	states, hi := tr.activeStates(), 0
	for _, ls := range states {
		if n := len(ls.classes); n > 0 {
			hi = max(hi, min(ls.classes[n-1].prefC, maxAlpha))
		}
	}
	if hi >= len(tr.alphaSeen) {
		tr.alphaSeen = make([]bool, hi+1)
	}
	seen, out := tr.alphaSeen, tr.alphaBuf[:0]
	if hi > 0 {
		for _, ls := range states {
			for _, c := range ls.classes {
				if c.count > 0 {
					seen[min(c.prefC, maxAlpha)] = true
				}
			}
		}
	}
	for a := 1; a <= hi; a++ {
		if seen[a] {
			out = append(out, a)
			seen[a] = false
		}
	}
	tr.alphaBuf = out
	return out
}

// serveLink advances up to alpha packets over link e, honoring queue
// priority. Pass selects which entry kinds are eligible: backtrack-only
// pass runs first across the whole configuration so direct-link delivery
// takes precedence over normal advancement (paper §6). Returns packets
// served.
func (tr *remaining) serveLink(e graph.Edge, alpha int, backtrackPass bool) int {
	ls := tr.state(e)
	if ls == nil || alpha <= 0 {
		return 0
	}
	served := 0
	for _, ei := range ls.entries {
		if served == alpha {
			break
		}
		// Copies, not pointers: a new successor below grows both arrays.
		en := tr.entries[ei]
		if en.backtrack() != backtrackPass {
			continue
		}
		sf := tr.subflows[en.sf]
		t := min(alpha-served, int(sf.count-sf.frozen))
		if t <= 0 {
			continue
		}
		tr.addCount(en.sf, -int32(t))
		served += t
		if tr.keepTrace {
			tr.trace = append(tr.trace, servedRecord{
				Config: tr.configIdx, Link: e, Key: tr.key(sf), RouteID: int(en.routeID),
				Count: t, Backtrack: en.backtrack(),
			})
		}
		if en.backtrack() {
			// Annul prior progress; deliver via the direct link.
			f := &tr.flows[sf.flow]
			prior := int(sf.pos)
			base := traffic.Weight(f.WeightLen(f.Routes[sf.routeID]))
			tr.psi -= int64(t) * int64(prior) * base
			tr.hops -= t * prior
			tr.psi += int64(t) * traffic.Weight(1)
			tr.hops += t
			tr.delivered += t
			tr.pending -= t
			continue
		}
		// Normal advancement (committing uncommitted packets if needed).
		tr.psi += int64(t) * en.pw
		tr.hops += t
		newPos, hops := sf.pos+1, sf.hops
		if hops == 0 {
			hops = int16(tr.flows[sf.flow].Routes[en.routeID].Hops())
		}
		if newPos == hops {
			tr.delivered += t
			tr.pending -= t
			continue
		}
		dst := tr.successor(en.sf, en.routeID)
		if dst == 0 {
			dst = int32(len(tr.subflows))
			tr.subflows = append(tr.subflows, subflow{
				flow: sf.flow, routeID: en.routeID, pos: newPos, hops: hops,
				count: int32(t), frozen: int32(t), alt: sf.next, homes: int32(len(tr.homes)),
			})
			tr.subflows[en.sf].next = dst
			tr.addCommittedEntry(dst)
		} else {
			tr.subflows[dst].frozen += int32(t)
			tr.addCount(dst, int32(t))
		}
		tr.touched = append(tr.touched, dst)
	}
	return served
}

// apply executes a chosen configuration against T^r: a backtrack pass over
// all links first (direct-link delivery takes priority), then normal
// advancement with each link's leftover capacity.
func (tr *remaining) apply(links []graph.Edge, alpha int) {
	bt := tr.btBuf[:0]
	for _, e := range links {
		n := 0
		if tr.backtrack {
			n = tr.serveLink(e, alpha, true)
		}
		bt = append(bt, n)
	}
	for i, e := range links {
		tr.serveLink(e, alpha-bt[i], false)
	}
	tr.btBuf = bt
	// Unfreeze arrivals: they may move from the next configuration on.
	for _, si := range tr.touched {
		tr.subflows[si].frozen = 0
	}
	tr.touched = tr.touched[:0]
	tr.configIdx++
}
