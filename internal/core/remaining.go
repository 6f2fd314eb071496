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
// at the class ends (fillLink), and the Procedure-1 α boundaries are the
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
	// T^r proper: three pointer-free arrays that only grow. Below
	// len(flows), subflows holds the initial subflows, one a flow and each
	// the root of its flow's position chain (see subflow.next), in serve
	// order (buildRemaining); homes[k] is the id of the link entries[k]
	// queues on.
	subflows []subflow
	entries  []entry
	homes    []int32
	// stateList holds every non-nil element of links, sorted by edge once
	// activeStates has run, and glinks their edges, index-aligned, as the
	// matchers take them (what a g-table column is indexed by; grouped by
	// From, so the greedy matcher reads it in place). Links that became
	// active since are appended to stateList unsorted, so
	// stateList[:len(glinks)] is always in order.
	stateList []*linkState
	glinks    []matching.Edge
	mergeBuf  []*linkState // activeStates' copy of the appended links
	stateSlab []linkState  // link states are carved from it, see open

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

// buildRemaining builds T^r = T on workers goroutines (0: GOMAXPROCS) in
// serve order: initial subflow i and its entries take the place of the
// subflow's first entry in the queues — links by id, each queue by priority
// — so that every queue of the load is a run of consecutive indices, which
// apply and the class pass read front to back. An Octopus+ subflow's
// entries, one per first hop, stay one window at its first entry's place.
// Its allocations are O(links), not O(flows): subflows, entries, queue
// slots, homes and weight classes come from arrays sized up front. The
// caller has checked that the load's index widths fit (checkOptions).
func buildRemaining(g *graph.Digraph, load *traffic.Load, workers, eps int, multiRoute, backtrack, keepTrace bool) *remaining {
	flows, n := load.Flows, len(load.Flows)
	tr := &remaining{g: g, flows: flows, links: make([]*linkState, g.M()), eps: eps, multiRoute: multiRoute, backtrack: backtrack, keepTrace: keepTrace}
	// A first entry's bw is WeightScale/l for the weight length l of its
	// route: l numbers the classes of a queue. An uncommitted subflow has an
	// entry per distinct first hop, at most one a route.
	nEntries, classes, ascending := 0, 1, true
	for i := range flows {
		f := &flows[i]
		routes := f.Routes[:1]
		if tr.uncommitted(f) {
			routes = f.Routes
		}
		for _, r := range routes {
			nEntries, classes = nEntries+1, max(classes, f.WeightLen(r))
		}
		tr.pending, ascending = tr.pending+f.Size, ascending && (i == 0 || flows[i-1].ID < f.ID)
	}
	tr.subflows = make([]subflow, n, n+n/growRoom)
	tr.entries, tr.homes = make([]entry, nEntries, nEntries+nEntries/growRoom), make([]int32, nEntries, nEntries+nEntries/growRoom)
	// Place each initial subflow by the (link, class) of its first entry.
	start := par.Place(workers, n, g.M()*classes, func(i int) int32 {
		f := &flows[i]
		e, ri := graph.Edge{From: f.Routes[0][0], To: f.Routes[0][1]}, 0
		if tr.uncommitted(f) {
			e, ri = nextHop(f, graph.Edge{From: -1})
		}
		return int32(g.LinkID(e.From, e.To)*classes + f.WeightLen(f.Routes[ri]) - 1)
	}, func(i int, si int32) {
		tr.subflows[si] = subflow{flow: int32(i), count: int32(flows[i].Size), routeID: -1}
		if !tr.uncommitted(&flows[i]) {
			tr.subflows[si].routeID, tr.subflows[si].hops = 0, int16(flows[i].Routes[0].Hops())
		}
	})
	// Then lay out their entries in that order, one window a subflow. Within
	// a class a queue serves by flow ID: load order, where IDs ascend (every
	// generator and codec). A committed subflow's one entry is its key's.
	at := int32(0)
	for k := range len(start) - 1 {
		sfs := tr.subflows[start[k]:start[k+1]]
		if !ascending {
			slices.SortStableFunc(sfs, func(x, y subflow) int { return cmp.Compare(flows[x.flow].ID, flows[y.flow].ID) })
		}
		for j := range sfs {
			si, sf := start[k]+int32(j), &sfs[j]
			if sf.homes = at; sf.routeID >= 0 {
				l := k%classes + 1
				tr.entries[at], tr.homes[at] = entry{sf: si, bw: tr.hopBW(l, 0), pw: traffic.Weight(l)}, int32(k/classes)
				sf.nHomes, at = 1, at+1
				continue
			}
			f := &flows[sf.flow]
			for e, ri := nextHop(f, graph.Edge{From: -1}); ri >= 0; e, ri = nextHop(f, e) {
				l := f.WeightLen(f.Routes[ri])
				tr.entries[at], tr.homes[at] = entry{sf: si, bw: tr.hopBW(l, 0), pw: traffic.Weight(l), routeID: int32(ri)}, int32(g.LinkID(e.From, e.To))
				sf.nHomes, at = sf.nHomes+1, at+1
			}
		}
	}
	tr.entries, tr.homes = tr.entries[:at], tr.homes[:at]
	tr.buildQueues(workers)
	return tr
}

// uncommitted reports whether f's initial subflow leaves the route choice
// open (Octopus+).
func (tr *remaining) uncommitted(f *traffic.Flow) bool { return tr.multiRoute && len(f.Routes) > 1 }

// nextHop returns the first hop of f's routes that follows prev in edge
// order, and the shortest route through it (the first of equals); ri is -1
// past the last. An uncommitted subflow queues once on each distinct first
// hop: when several candidate routes share one, the packet is considered
// only once on that link (paper §6, "Allowing Routes with Common First
// Hops"), with the best (shortest-route) weight among them, committing to
// that route when served.
func nextHop(f *traffic.Flow, prev graph.Edge) (e graph.Edge, ri int) {
	ri = -1
	for rj, r := range f.Routes {
		h := graph.Edge{From: r[0], To: r[1]}
		if c := cmpEdge(h, e); cmpEdge(h, prev) > 0 && (ri < 0 || c < 0 || c == 0 && r.Hops() < f.Routes[ri].Hops()) {
			e, ri = h, rj
		}
	}
	return e, ri
}

// buildQueues deals the entries out to their links and gives each link that
// holds one its state, in edge order from one slab. Then a worker takes each
// run of links: it counts the run's weight classes, carves their cells out
// of one array, and credits each entry's packets to its class as every later
// count change is credited. Entries are numbered in serve order, so a queue
// is in priority order as dealt unless some subflow queues on several links
// (Octopus+): then each queue is sorted once. Every flow queues at most once
// on a link, so (bw desc, flow ID asc) is a strict order.
func (tr *remaining) buildQueues(workers int) {
	g := tr.g
	b := par.Deal(workers, len(tr.homes), g.M(), func(k int) int32 { return tr.homes[k] })
	active := 0 // links holding an entry: their states come from one slab, in edge order
	for id := range g.M() {
		active += min(1, len(b.Of(id)))
	}
	tr.stateSlab, tr.stateList = make([]linkState, active), make([]*linkState, 0, active+active/growRoom)
	tr.glinks = make([]matching.Edge, 0, cap(tr.stateList))
	for i := range g.N() {
		for _, j := range g.Out(i) {
			if len(b.Of(g.LinkID(i, j))) > 0 {
				tr.open(graph.Edge{From: i, To: j})
				tr.glinks = append(tr.glinks, matching.Edge{From: i, To: j}) // opened in order: nothing to merge
			}
		}
	}
	b.Each(workers, func(lo, hi int) {
		n := 0
		for id := lo; id < hi; id++ {
			q := b.Of(id)
			if len(tr.entries) > len(tr.subflows) {
				slices.SortStableFunc(q, tr.cmpEntries)
			}
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

// open returns the queue of fabric link e, carving its state from the slab
// when the link first holds an entry.
func (tr *remaining) open(e graph.Edge) *linkState {
	id := tr.g.LinkID(e.From, e.To)
	if tr.links[id] == nil {
		if len(tr.stateSlab) == 0 {
			tr.stateSlab = make([]linkState, slabChunk)
		}
		tr.links[id], tr.stateSlab = &tr.stateSlab[0], tr.stateSlab[1:]
		*tr.links[id] = linkState{tr: tr, edge: e, changed: true}
		tr.stateList = append(tr.stateList, tr.links[id])
	}
	return tr.links[id]
}

// addEntry queues en on fabric link e, credits the subflow's packets to the
// entry's weight class there, and records the link as a home of the subflow
// so that count changes reach the class. A subflow's entries are added back
// to back, right after it is created, which is what makes them a window.
func (tr *remaining) addEntry(e graph.Edge, en entry) {
	ls := tr.open(e)
	k := int32(len(tr.entries))
	tr.entries = append(tr.entries, en)
	tr.homes = append(tr.homes, int32(tr.g.LinkID(e.From, e.To)))
	tr.subflows[en.sf].nHomes++
	ls.insert(k)
	ls.credit(en.bw, int(tr.subflows[en.sf].count))
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

// activeStates returns the states of the links with at least one entry,
// sorted by edge, and leaves tr.glinks index-aligned with them. The links
// that became active since the last call (a few hundred of tens of
// thousands, an iteration) are sorted on their own and merged into the
// sorted rest from the back, in place.
func (tr *remaining) activeStates() []*linkState {
	if old := len(tr.glinks); old < len(tr.stateList) {
		byEdge := func(a, b *linkState) int { return cmpEdge(a.edge, b.edge) }
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
		tr.glinks = tr.glinks[:0]
		for _, ls := range tr.stateList {
			tr.glinks = append(tr.glinks, matching.Edge{From: ls.edge.From, To: ls.edge.To})
		}
	}
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
