package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"octopus/internal/graph"
	"octopus/internal/matching"
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

// subflow is a group of identical packets of the remaining traffic.
type subflow struct {
	key   sfKey
	flow  *traffic.Flow
	route traffic.Route // nil while uncommitted
	count int
	// frozen is the number of packets that arrived during the
	// configuration currently being applied; they may not move again until
	// the next configuration (a packet traverses at most one hop per
	// configuration in the plan bookkeeping).
	frozen int
	// homes are the link queues holding an entry for this subflow. A count
	// change invalidates exactly these links' cached summaries.
	homes []*linkState
	// next and alt are the flow's position chain, which stands in for a map
	// keyed by sfKey. next is the subflow one hop further along the route
	// (nil until a packet gets there). Only an uncommitted subflow can have
	// several successors, one per route its packets have committed to: next
	// is the newest and alt links each to the one created before it.
	next, alt *subflow
}

// successor returns the subflow that packets served from sf along route
// routeID join, or nil if none has been created yet.
func (sf *subflow) successor(routeID int) *subflow {
	d := sf.next
	for d != nil && d.key.routeID != routeID {
		d = d.alt
	}
	return d
}

// markDirty invalidates the cached summary of every queue holding one of
// the subflow's entries; called whenever the subflow's packet count changes.
func (tr *remaining) markDirty(sf *subflow) {
	for _, ls := range sf.homes {
		ls.dirty = true
	}
}

// entry is one appearance of a subflow in a link's virtual output queue.
// A committed subflow has one entry (on its next-hop link) plus, with
// backtracking enabled, one on the direct source->destination link. An
// uncommitted subflow has one entry per distinct candidate first-hop link.
type entry struct {
	sf *subflow
	// bw is the per-packet benefit weight at this link (includes the
	// Octopus-e ε hop bonus); queues order by bw desc, then flow ID asc.
	bw int64
	// pw is the per-packet base ψ weight of the route this entry advances
	// the packet along (no ε), used for ψ accounting.
	pw int64
	// routeID is the route the packet commits to when served through this
	// entry (meaningful for uncommitted subflows; equals sf.key.routeID
	// otherwise).
	routeID int
	// backtrack marks a direct-link entry that annuls the packet's prior
	// multi-hop progress when served (Octopus+ §6).
	backtrack bool
}

// linkSummary caches, per link, everything the greedy loop repeatedly asks
// of the queue: prefix sums over the live (non-zero-count) entries in queue
// order, the per-entry benefit weights, and the Procedure-1 α boundaries
// (unclamped prefix counts at each benefit-weight run boundary plus the
// total). gValue becomes a binary search over prefC/prefB and
// candidateAlphas a merge of the cached alphas sets. The summary is a pure
// function of the queue contents, so rebuilding it lazily (and only for
// links whose queues changed) yields bit-identical results to the direct
// per-call walk it replaces.
type linkSummary struct {
	live   []*entry // entries with count > 0, queue order
	prefC  []int    // cumulative packet count over live
	prefB  []int64  // cumulative benefit (count·bw) over live
	bws    []int64  // benefit weight of each live entry
	alphas []int    // Procedure-1 boundaries, ascending, unclamped
}

// linkState is the priority queue of entries for one directed link.
type linkState struct {
	edge    graph.Edge
	entries []*entry
	sum     linkSummary
	// dirty marks the summary stale. It is set single-threaded (entry
	// insertion and count changes during apply) and cleared single-threaded
	// (candidateAlphas at the start of each bestConfiguration), so the
	// parallel evaluation phase only ever reads clean summaries.
	dirty bool
}

func (ls *linkState) insert(e *entry) {
	i := sort.Search(len(ls.entries), func(i int) bool {
		o := ls.entries[i]
		if o.bw != e.bw {
			return o.bw < e.bw
		}
		if o.sf.flow.ID != e.sf.flow.ID {
			return o.sf.flow.ID > e.sf.flow.ID
		}
		return o.sf.key.pos >= e.sf.key.pos
	})
	ls.entries = append(ls.entries, nil)
	copy(ls.entries[i+1:], ls.entries[i:])
	ls.entries[i] = e
	ls.dirty = true
}

// rebuild recomputes the cached summary from the queue contents.
func (ls *linkState) rebuild() {
	s := &ls.sum
	if n := len(ls.entries); cap(s.prefC) < n {
		// The queue has outgrown the share newRemaining carved for it (or was
		// created later): sized once per queue growth, not by append's doubling.
		s.live, s.prefC, s.prefB, s.bws = make([]*entry, 0, n), make([]int, 0, n), make([]int64, 0, n), make([]int64, 0, n)
	}
	s.live = s.live[:0]
	s.prefC = s.prefC[:0]
	s.prefB = s.prefB[:0]
	s.bws = s.bws[:0]
	s.alphas = s.alphas[:0]
	c := 0
	var b int64
	var lastBW int64 = -1
	for _, en := range ls.entries {
		if en.sf.count == 0 {
			continue
		}
		if lastBW != -1 && en.bw != lastBW && c > 0 {
			s.alphas = append(s.alphas, c)
		}
		c += en.sf.count
		b += int64(en.sf.count) * en.bw
		s.live = append(s.live, en)
		s.prefC = append(s.prefC, c)
		s.prefB = append(s.prefB, b)
		s.bws = append(s.bws, en.bw)
		lastBW = en.bw
	}
	if c > 0 {
		s.alphas = append(s.alphas, c)
	}
	ls.dirty = false
}

// summary returns the up-to-date cached summary. Callers on the parallel
// read-only path rely on candidateAlphas having cleaned every active link
// beforehand; the rebuild here only triggers on single-threaded paths
// (direct test calls, serveLink-free queries).
func (ls *linkState) summary() *linkSummary {
	if ls.dirty {
		ls.rebuild()
	}
	return &ls.sum
}

// Entries are never removed from a queue: a subflow drained now can be
// refilled later by upstream arrivals of the same flow, and its entry must
// still be present. Zero-count entries are skipped during iteration; the
// total number of entries is bounded by the number of subflows (|T|·𝒟).

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
	g *graph.Digraph
	// links is indexed by graph.Digraph.LinkID; nil until the link first
	// holds an entry. heads[i] is the initial subflow of load.Flows[i], the
	// root of that flow's position chain (see subflow.next).
	links []*linkState
	heads []subflow
	// stateList holds every non-nil element of links, sorted by edge once
	// activeEdges has run; edgeList is its edges, index-aligned, and glinks
	// the same as the matchers take them (what a g-table column is indexed by).
	stateList  []*linkState
	edgeList   []graph.Edge
	glinks     []matching.Edge
	edgesDirty bool

	// Everything created after construction is carved from slabs; T^r only
	// grows, so nothing is ever handed back.
	subflows slab[subflow]
	entries  slab[entry]
	homes    slab[*linkState]
	states   slab[linkState]

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
	touched   []*subflow // subflows with frozen packets from the current apply
	btBuf     []int      // per-link backtrack-pass service of the current apply

	// buildHomes is non-nil only during newRemaining: addEntry records each
	// entry's queue here (and counts it in buildCount, by link id) instead
	// of inserting, so every queue is carved to size and sorted once.
	buildHomes []*linkState
	buildCount []int32
	// alphaBuf is the reusable merge buffer of candidateAlphas; the
	// returned slice aliases it and is valid until the next call.
	alphaBuf []int
	// lastRebuilds counts the dirty link summaries the most recent
	// candidateAlphas call rebuilt (observability only).
	lastRebuilds int
}

// slabChunk is how many objects a slab allocates at a time once its
// initial reservation is used up.
const slabChunk = 64

// slab carves objects out of chunked backing arrays, so n of them cost
// n/slabChunk allocations instead of n.
type slab[T any] struct{ free []T }

// take returns n fresh zero elements with no spare capacity.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, max(n, slabChunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// newRemaining builds T^r = T. Its allocations are O(links), not O(flows):
// subflows, entries, queue slots, homes and link-summary arrays of the whole
// load come from arrays sized up front.
func newRemaining(g *graph.Digraph, load *traffic.Load, eps int, multiRoute, backtrack, keepTrace bool) *remaining {
	tr := &remaining{
		g:          g,
		links:      make([]*linkState, g.M()),
		heads:      make([]subflow, len(load.Flows)),
		eps:        eps,
		multiRoute: multiRoute,
		backtrack:  backtrack,
		keepTrace:  keepTrace,
	}
	nEntries := len(load.Flows)
	if multiRoute {
		nEntries = 0
		for i := range load.Flows {
			nEntries += len(load.Flows[i].Routes)
		}
	}
	initial := make([]entry, nEntries)
	tr.entries.free = initial
	tr.buildHomes = make([]*linkState, 0, nEntries)
	tr.buildCount = make([]int32, g.M())
	for i := range load.Flows {
		f := &load.Flows[i]
		sf := &tr.heads[i]
		tr.pending += f.Size
		if !tr.multiRoute || len(f.Routes) == 1 {
			*sf = subflow{key: sfKey{f.ID, 0, 0}, flow: f, route: f.Routes[0], count: f.Size}
			tr.addCommittedEntry(sf)
			continue
		}
		*sf = subflow{key: sfKey{f.ID, -1, 0}, flow: f, count: f.Size}
		tr.addUncommittedEntries(sf)
	}
	// Carve every queue to its final size, then deal the entries out. A
	// subflow's entries are consecutive, so its homes are a window of
	// buildHomes.
	homes := tr.buildHomes
	slots := make([]*entry, len(homes))
	// So are the summary arrays of every queue, its share being its initial
	// length (see linkState.rebuild).
	live, prefC, prefB, bws := make([]*entry, len(homes)), make([]int, len(homes)), make([]int64, len(homes)), make([]int64, len(homes))
	for _, ls := range tr.stateList {
		c := tr.buildCount[g.LinkID(ls.edge.From, ls.edge.To)]
		ls.entries, slots = slots[:0:c], slots[c:]
		ls.sum.live, ls.sum.prefC, ls.sum.prefB, ls.sum.bws = live[:0:c], prefC[:0:c], prefB[:0:c], bws[:0:c]
		live, prefC, prefB, bws = live[c:], prefC[c:], prefB[c:], bws[c:]
	}
	for k, ls := range homes {
		en := &initial[k]
		ls.entries = append(ls.entries, en)
		en.sf.homes = homes[k-len(en.sf.homes) : k+1 : k+1]
	}
	tr.buildHomes, tr.buildCount = nil, nil
	// Sort each queue once. During construction every flow contributes at
	// most one entry per link, so (bw desc, flow ID asc) is a strict total
	// order and the batch sort reproduces the incremental-insert order
	// exactly.
	for _, ls := range tr.stateList {
		sortEntries(ls.entries)
	}
	return tr
}

// sortEntries orders a queue by (bw desc, flow ID asc, pos asc), the order
// linkState.insert maintains incrementally.
func sortEntries(entries []*entry) {
	slices.SortStableFunc(entries, func(a, b *entry) int {
		if a.bw != b.bw {
			return cmp.Compare(b.bw, a.bw)
		}
		if a.sf.flow.ID != b.sf.flow.ID {
			return cmp.Compare(a.sf.flow.ID, b.sf.flow.ID)
		}
		return cmp.Compare(a.sf.key.pos, b.sf.key.pos)
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

// addEntry queues en on fabric link e and records the queue as a home of
// the subflow so count changes can invalidate its summary.
func (tr *remaining) addEntry(e graph.Edge, en entry) {
	id := tr.g.LinkID(e.From, e.To)
	ls := tr.links[id]
	if ls == nil {
		ls = &tr.states.take(1)[0]
		ls.edge, ls.dirty = e, true
		tr.links[id] = ls
		tr.stateList = append(tr.stateList, ls)
		tr.edgesDirty = true
	}
	p := &tr.entries.take(1)[0]
	*p = en
	if tr.buildHomes != nil {
		tr.buildHomes = append(tr.buildHomes, ls)
		tr.buildCount[id]++
		return
	}
	ls.insert(p)
	p.sf.homes = append(p.sf.homes, ls)
}

// addCommittedEntry queues a committed subflow on its next-hop link and,
// when backtracking applies, on the direct source->destination link.
func (tr *remaining) addCommittedEntry(sf *subflow) {
	l := sf.flow.WeightLen(sf.route)
	pos := sf.key.pos
	e := graph.Edge{From: sf.route[pos], To: sf.route[pos+1]}
	tr.addEntry(e, entry{
		sf: sf, bw: tr.hopBW(l, pos), pw: traffic.Weight(l), routeID: sf.key.routeID,
	})
	if tr.backtrack && pos > 0 && tr.g.HasEdge(sf.flow.Src, sf.flow.Dst) {
		direct := graph.Edge{From: sf.flow.Src, To: sf.flow.Dst}
		tr.addEntry(direct, entry{
			sf: sf, bw: tr.hopBW(1, 0), pw: traffic.Weight(1), routeID: -1, backtrack: true,
		})
	}
}

// addUncommittedEntries queues an uncommitted source subflow once on each
// distinct candidate first-hop link. When several candidate routes share a
// first hop, the packet is considered only once on that link (paper §6,
// "Allowing Routes with Common First Hops"); we credit it with the best
// (shortest-route) weight among them and commit to that route when served.
func (tr *remaining) addUncommittedEntries(sf *subflow) {
	best := make(map[graph.Edge]int) // link -> route index with max weight
	for ri, r := range sf.flow.Routes {
		e := graph.Edge{From: r[0], To: r[1]}
		if prev, ok := best[e]; !ok || r.Hops() < sf.flow.Routes[prev].Hops() {
			best[e] = ri
		}
	}
	// Deterministic order of entry insertion.
	links := make([]graph.Edge, 0, len(best))
	for e := range best {
		links = append(links, e)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	for _, e := range links {
		ri := best[e]
		l := sf.flow.WeightLen(sf.flow.Routes[ri])
		tr.addEntry(e, entry{
			sf: sf, bw: tr.hopBW(l, 0), pw: traffic.Weight(l), routeID: ri,
		})
	}
}

// activeEdges returns the sorted list of links with at least one entry.
func (tr *remaining) activeEdges() []graph.Edge {
	if tr.edgesDirty {
		slices.SortFunc(tr.stateList, func(a, b *linkState) int { return cmpEdge(a.edge, b.edge) })
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

// gValueState computes g(i, j, α): the maximum benefit weight of α packets
// queued on the link (Procedure 2, line 4). Each packet is counted once
// even if it has entries with several candidate routes on other links.
// Using the cached summary this is a binary search over the prefix counts:
// the queue walk it replaces took the top α packets in queue order, which
// is exactly "all of the first k live entries plus a partial take of entry
// k+1" for the k the search finds.
func gValueState(ls *linkState, alpha int) int64 {
	if alpha <= 0 {
		return 0
	}
	s := ls.summary()
	n := len(s.prefC)
	if n == 0 {
		return 0
	}
	if alpha >= s.prefC[n-1] {
		return s.prefB[n-1]
	}
	// Inline binary search for the first live entry whose cumulative count
	// reaches α (sort.Search's closure indirection costs on this path).
	lo, hi := 0, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.prefC[mid] >= alpha {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return s.prefB[lo] - int64(s.prefC[lo]-alpha)*s.bws[lo]
}

// candidateAlphas implements Procedure 1 (SetOfAlphas): for every link, the
// prefix sums of queued packet counts at each benefit-weight class
// boundary. Values are clamped to maxAlpha and deduplicated; the result is
// sorted ascending.
//
// The per-link boundary sets are cached in the link summaries; this merge
// also doubles as the per-iteration synchronization point that rebuilds
// every dirty summary before the parallel evaluation phase reads them. The
// returned slice aliases an internal buffer valid until the next call.
func (tr *remaining) candidateAlphas(maxAlpha int) []int {
	buf := tr.alphaBuf[:0]
	rebuilds := 0
	for _, ls := range tr.activeStates() {
		if ls.dirty {
			rebuilds++
		}
		s := ls.summary()
		for _, a := range s.alphas {
			buf = append(buf, minInt(a, maxAlpha))
		}
	}
	slices.Sort(buf)
	// Compact duplicates and drop non-positive values in place.
	out := buf[:0]
	for i, a := range buf {
		if a > 0 && (i == 0 || a != buf[i-1]) {
			out = append(out, a)
		}
	}
	tr.alphaBuf = buf
	tr.lastRebuilds = rebuilds
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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
	for _, en := range ls.entries {
		if served == alpha {
			break
		}
		if en.backtrack != backtrackPass {
			continue
		}
		sf := en.sf
		movable := sf.count - sf.frozen
		if movable <= 0 {
			continue
		}
		t := minInt(alpha-served, movable)
		sf.count -= t
		tr.markDirty(sf)
		served += t
		if tr.keepTrace {
			tr.trace = append(tr.trace, servedRecord{
				Config: tr.configIdx, Link: e, Key: sf.key, RouteID: en.routeID,
				Count: t, Backtrack: en.backtrack,
			})
		}
		if en.backtrack {
			// Annul prior progress; deliver via the direct link.
			prior := sf.key.pos
			base := traffic.Weight(sf.flow.WeightLen(sf.route))
			tr.psi -= int64(t) * int64(prior) * base
			tr.hops -= t * prior
			tr.psi += int64(t) * traffic.Weight(1)
			tr.hops += t
			tr.delivered += t
			tr.pending -= t
			continue
		}
		// Normal advancement (committing uncommitted packets if needed).
		route := sf.route
		if route == nil {
			route = sf.flow.Routes[en.routeID]
		}
		tr.psi += int64(t) * en.pw
		tr.hops += t
		newPos := sf.key.pos + 1
		if newPos == len(route)-1 {
			tr.delivered += t
			tr.pending -= t
			continue
		}
		dst := sf.successor(en.routeID)
		if dst == nil {
			nHomes := 1
			if tr.backtrack {
				nHomes = 2
			}
			dst = &tr.subflows.take(1)[0]
			*dst = subflow{
				key: sfKey{sf.flow.ID, en.routeID, newPos}, flow: sf.flow, route: route,
				count: t, frozen: t, homes: tr.homes.take(nHomes)[:0], alt: sf.next,
			}
			sf.next = dst
			tr.addCommittedEntry(dst)
		} else {
			dst.count += t
			dst.frozen += t
			tr.markDirty(dst)
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
	for _, sf := range tr.touched {
		sf.frozen = 0
	}
	tr.touched = tr.touched[:0]
	tr.configIdx++
}

// eachSubflow calls f for every subflow of T^r, drained ones included, by
// walking each flow's position chain.
func (tr *remaining) eachSubflow(f func(*subflow)) {
	for i := range tr.heads {
		h := &tr.heads[i]
		f(h)
		for b := h.next; b != nil; b = b.alt {
			for sf := b; sf != nil; sf = sf.next {
				f(sf)
			}
		}
	}
}

// sanity verifies internal invariants (test hook).
func (tr *remaining) sanity() error {
	var err error
	total := 0
	tr.eachSubflow(func(sf *subflow) {
		if sf.count < 0 {
			err = fmt.Errorf("core: negative count for %+v", sf.key)
		}
		if sf.route != nil && sf.key.pos >= len(sf.route)-1 {
			err = fmt.Errorf("core: subflow %+v at/past destination", sf.key)
		}
		total += sf.count
	})
	if err == nil && total != tr.pending {
		err = fmt.Errorf("core: pending %d != sum of subflows %d", tr.pending, total)
	}
	return err
}
