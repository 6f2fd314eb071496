// Package simulate is the packet-level synchronous network simulator used
// to measure every result in this repository, mirroring the paper's §8
// ("a simple custom packet-level simulator that routes traffic
// synchronously, one packet transmission in each time slot over each active
// link").
//
// Given a fabric, a traffic load with fixed routes, and a configuration
// schedule, Run replays the schedule slot by slot: packets wait in
// virtual output queues (VOQs) at each node, are prioritized on every
// active link first by packet weight and then by flow ID (the paper's
// packet-prioritizing scheme), and advance one hop per transmission; Stream
// replays configurations as they arrive, so a planner can have each replayed
// as it commits it. The simulator reads nothing of a scheduler but its
// configurations, so it serves as the measurement authority: scheduler
// bookkeeping is cross-checked against it in tests.
package simulate

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/obs/flight"
	"octopus/internal/par"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// Options configures a simulation run.
type Options struct {
	// MultiHop allows a packet to traverse several hops within a single
	// configuration (the relaxation of the paper's §5): a packet that
	// crosses a link at slot t may cross the next link of its route from
	// slot t+1 if that link is active.
	MultiHop bool

	// Ports is the number of input and output ports per node (the K-ports
	// model of §7); 0 or 1 selects the standard single-port model.
	Ports int

	// Window, if positive, caps the replayed slots: each configuration
	// costs its reconfiguration delay followed by its duration, and replay
	// stops once the window is exhausted (the duration of the final
	// configuration is truncated to fit).
	Window int

	// Epsilon64 makes VOQs prioritize packets by the controller-assigned
	// Octopus-e hop weight (1 + x·ε) instead of the plain packet weight,
	// matching a scheduler run with the same core.Options.Epsilon64. The
	// ψ metric always uses the plain weight.
	Epsilon64 int

	// TrackBuffers reports in Result.MaxNodeBuffer / MaxTotalBuffer the peak
	// in-network buffering after a configuration: packets at intermediate
	// nodes, past their source and short of their destination, the switch
	// memory multi-hop scheduling trades for throughput.
	TrackBuffers bool

	// TrackFlows records per-flow delivery counts in Result.FlowDelivered.
	TrackFlows bool

	// Faults injects a deterministic failure trace (see internal/fault): a
	// link that is down, or has a down endpoint, carries nothing during the
	// slot, so packets wait at their node, and each lost slot is counted in
	// Result.FailedLinkSlots. The trace's delta jitter extends the
	// reconfiguration delay before the k-th configuration. Nil replays
	// failure-free.
	Faults *fault.Trace

	// Obs receives the replay's metrics and its "sim.config" / "sim.done"
	// trace events, all when the replay finishes: the events of a Stream
	// never interleave with those of the planner feeding it. nil disables
	// instrumentation; the measured Result is identical either way.
	Obs *obs.Observer

	// Flight receives per-flow lifecycle events for tracked flows (hop
	// advances, deliveries, stranded packets), their epochs global slot
	// numbers. nil disables recording; like Obs, the recorder is strictly
	// read-only: the measured Result is identical either way.
	Flight *flight.Recorder
}

// Result reports the outcome of a simulation.
type Result struct {
	TotalPackets    int   // packets in the offered load
	Delivered       int   // packets that reached their final destination
	Hops            int   // total packet-hops traversed
	Psi             int64 // Σ hops(p)·w_p, in traffic.WeightScale units
	ActiveLinkSlots int64 // Σ αₖ·|Mₖ| over replayed configurations
	SlotsUsed       int   // total slots consumed, including reconfigurations
	Configs         int   // configurations (fully or partially) replayed

	// MaxNodeBuffer / MaxTotalBuffer are the peak per-node and aggregate
	// in-network buffer occupancies observed at configuration boundaries
	// (0 unless Options.TrackBuffers).
	MaxNodeBuffer  int
	MaxTotalBuffer int

	// FlowDelivered maps flow ID to delivered packets (nil unless
	// Options.TrackFlows).
	FlowDelivered map[int]int

	// FailedLinkSlots counts scheduled active link-slots lost to failures:
	// slots during which a configuration had a link active but the link or
	// one of its endpoints was down (always 0 without Options.Faults).
	FailedLinkSlots int64

	// Stranded counts undelivered packets that ended the replay at an
	// intermediate node: past their source, short of their destination.
	Stranded int
}

// DeliveredFraction returns Delivered / TotalPackets (0 for empty loads).
func (r *Result) DeliveredFraction() float64 {
	if r.TotalPackets == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.TotalPackets)
}

// Utilization returns the paper's link-utilization metric: packet-hops
// traversed divided by active link-slots (0 if no link was ever active).
func (r *Result) Utilization() float64 {
	if r.ActiveLinkSlots == 0 {
		return 0
	}
	return float64(r.Hops) / float64(r.ActiveLinkSlots)
}

// DeliveredOfPsi returns delivered packets as a fraction of the objective
// value ψ expressed in packet equivalents (ψ/WeightScale), the metric of
// the paper's Fig 7(a). Returns 0 when ψ is 0.
func (r *Result) DeliveredOfPsi() float64 {
	if r.Psi == 0 {
		return 0
	}
	return float64(r.Delivered) * float64(traffic.WeightScale) / float64(r.Psi)
}

// group is an aggregated set of identical packets: same flow, same route,
// same current position. Packets in a group are interchangeable. It holds
// indices, not pointers, and fits 32 bytes: the replay state of a load is one
// array the collector never scans.
type group struct {
	prio  int64 // per-packet queueing priority (ε-adjusted hop weight)
	flow  int32 // index into load.Flows, which supplies ID and routes
	count int32 // at most the flow's Size, which newState caps at MaxInt32
	avail int32 // first global slot at which these packets may move (Run caps slots)
	// pos is the hop the packets wait to take, hops the length of their
	// route and wlen the hop count their ψ weight derives from, all at most
	// traffic.MaxRouteLen.
	pos, hops, wlen int16
}

// linkQueue is the VOQ holding packets at a node whose next hop uses a
// specific link, ordered by the paper's priority scheme: weight descending,
// then flow ID ascending. Its elements index state.groups.
type linkQueue []int32

// growRoom: the group array is built with 1/growRoom spare capacity for the
// groups packets form as they move downstream, so that the first arrival
// does not re-allocate and copy the state of the whole load.
const growRoom = 8

// state is the mutable simulation state.
type state struct {
	g          *graph.Digraph
	flows      []traffic.Flow // the load's, which group.flow indexes
	eps        int
	trackFlows bool
	// Below len(flows), groups starts as the flows at their sources, one
	// group a flow in serve order (newState); groups formed downstream take
	// a free slot or are appended.
	groups []group
	free   []int32 // drained groups that no queue holds any more
	// qidx[id] indexes link id's VOQ in queues: 0, the always-empty
	// queues[0], until packets queue on the link (graph.Digraph.LinkID).
	qidx   []int32
	queues []linkQueue
	up     []int // runBulk's slots up per link of a configuration
	flight *flight.Recorder
	res    Result
}

// id returns the ID of the flow the group's packets belong to.
func (st *state) id(g *group) int { return st.flows[g.flow].ID }

// route returns the route the group's packets follow: the flow's first.
func (st *state) route(g *group) traffic.Route { return st.flows[g.flow].Routes[0] }

// newState builds the replay state of the whole load in serve order: each
// flow's group takes its place in its first hop's queue, queues in link id
// order, so that every queue is a run of consecutive groups that serve reads
// front to back. Allocations do not grow with the load: groups and queue
// slots come from two arrays sized up front. Index widths fail closed: a
// size that the count of a group cannot hold is an error.
func newState(g *graph.Digraph, load *traffic.Load, opt Options) (*state, error) {
	n := len(load.Flows)
	st := &state{
		g: g, flows: load.Flows, eps: opt.Epsilon64, trackFlows: opt.TrackFlows, flight: opt.Flight,
		groups: make([]group, n, n+n/growRoom), qidx: make([]int32, g.M()), queues: []linkQueue{nil},
	}
	if opt.TrackFlows {
		st.res.FlowDelivered = make(map[int]int)
	}
	// A group's prio is Weight(wl) for the weight length wl of its route, so
	// wl orders the classes of a queue.
	ascending, classes := true, 1 // flow IDs, in load order
	for i := range load.Flows {
		f := &load.Flows[i]
		if f.Size < 0 || f.Size > math.MaxInt32 {
			return nil, fmt.Errorf("simulate: flow %d size %d is outside [0,%d]", f.ID, f.Size, math.MaxInt32)
		}
		wl := f.WeightLen(f.Routes[0])
		st.res.TotalPackets += f.Size
		ascending, classes = ascending && (i == 0 || load.Flows[i-1].ID < f.ID), max(classes, wl)
	}
	start := par.Place(0, n, g.M()*classes, func(i int) int32 {
		f := &load.Flows[i]
		r := f.Routes[0]
		return int32(g.LinkID(r[0], r[1])*classes + f.WeightLen(r) - 1)
	}, func(i int, slot int32) {
		f := &load.Flows[i]
		r := f.Routes[0]
		wl := f.WeightLen(r)
		st.groups[slot] = group{
			prio: traffic.HopWeight(wl, 0, st.eps), flow: int32(i), count: int32(f.Size),
			hops: int16(r.Hops()), wlen: int16(wl),
		}
	})
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = int32(i)
	}
	for id := range st.qidx { // a link's classes, heaviest first
		lo, hi := start[id*classes], start[(id+1)*classes]
		if lo == hi {
			continue
		}
		st.qidx[id] = int32(len(st.queues))
		st.queues = append(st.queues, slots[lo:hi:hi])
		if !ascending {
			// Within a class the deal kept load order, which is priority order
			// where IDs ascend (every generator and codec). Otherwise sort by
			// (prio desc, ID asc); Load.Validate has made the IDs unique.
			slices.SortFunc(st.groups[lo:hi], func(a, b group) int {
				return cmp.Or(cmp.Compare(b.prio, a.prio), cmp.Compare(st.id(&a), st.id(&b)))
			})
		}
	}
	return st, nil
}

// merge adds g's packets to the queued group at index into when the two are
// interchangeable — same priority, flow ID, position and availability (same
// avail only, to keep slot semantics exact) — and the sum fits its count.
func (st *state) merge(into int32, g *group) bool {
	o := &st.groups[into]
	if o.prio != g.prio || o.pos != g.pos || o.avail != g.avail || st.id(o) != st.id(g) || int64(o.count)+int64(g.count) > math.MaxInt32 {
		return false
	}
	o.count += g.count
	return true
}

// enqueue places a group of packets that crossed a hop into the VOQ for its
// next one, assigning its queueing priority for that hop. Groups whose
// position is the final destination are never enqueued.
func (st *state) enqueue(g group) {
	g.prio = traffic.HopWeight(int(g.wlen), int(g.pos), st.eps)
	r, fid := st.route(&g), st.id(&g)
	id := st.g.LinkID(r[g.pos], r[g.pos+1])
	if st.qidx[id] == 0 {
		st.qidx[id] = int32(len(st.queues))
		st.queues = append(st.queues, nil)
	}
	q := &st.queues[st.qidx[id]]
	i := sort.Search(len(*q), func(i int) bool {
		o := &st.groups[(*q)[i]]
		if o.prio != g.prio {
			return o.prio < g.prio
		}
		return st.id(o) >= fid
	})
	if i < len(*q) && st.merge((*q)[i], &g) {
		return
	}
	var gi int32
	if k := len(st.free); k > 0 {
		gi, st.free = st.free[k-1], st.free[:k-1]
		st.groups[gi] = g
	} else {
		gi = int32(len(st.groups))
		st.groups = append(st.groups, g)
	}
	*q = slices.Insert(*q, i, gi)
}

// serve transmits up to want packets over link e, considering only packets
// available at or before slot avail. Crossed packets become available again
// at slot nextAvail. Returns the number of packets transmitted.
func (st *state) serve(e graph.Edge, want, availBy, nextAvail int) int {
	id := st.g.LinkID(e.From, e.To)
	if id < 0 || want <= 0 {
		return 0
	}
	// Copies, not pointers: enqueue below can grow the group array and the
	// queue table, though never this queue (a route repeats no link).
	qi := st.qidx[id]
	q := st.queues[qi]
	served := 0
	for i := 0; i < len(q) && served < want; i++ {
		g := st.groups[q[i]]
		if int(g.avail) > availBy || g.count == 0 {
			continue
		}
		take := min(want-served, int(g.count))
		st.groups[q[i]].count -= int32(take)
		served += take
		st.res.Hops += take
		st.res.Psi += int64(take) * traffic.Weight(int(g.wlen))
		if st.flight != nil && st.flight.Tracks(int64(st.id(&g))) {
			st.flight.Hop(int64(st.id(&g)), availBy, int(g.pos)+1, int(g.hops)+1, int64(take))
		}
		if g.pos+1 == g.hops {
			st.res.Delivered += take
			if st.trackFlows {
				st.res.FlowDelivered[st.id(&g)] += take
			}
			if st.flight != nil {
				st.flight.Delivered(int64(st.id(&g)), availBy, int64(take))
			}
		} else {
			g.pos, g.count, g.avail = g.pos+1, int32(take), int32(nextAvail)
			st.enqueue(g)
		}
	}
	// Drop drained groups from the queue; their slots are free to reuse.
	if served > 0 {
		live := q[:0]
		for _, gi := range q {
			if st.groups[gi].count > 0 {
				live = append(live, gi)
			} else {
				st.free = append(st.free, gi)
			}
		}
		st.queues[qi] = live
	}
	return served
}

// Run replays sch over fabric g carrying load and returns the measured
// result: Stream over sch's configurations.
func Run(g *graph.Digraph, load *traffic.Load, sch *schedule.Schedule, opt Options) (*Result, error) {
	cfgs := make(chan schedule.Configuration, len(sch.Configs))
	for _, c := range sch.Configs {
		cfgs <- c
	}
	close(cfgs)
	return Stream(g, load, sch.Delta, opt, cfgs)
}

// Stream replays the configurations received on cfgs, each after a
// reconfiguration delay of delta slots, until cfgs is closed; every flow's
// packets follow its first route. It checks each as it arrives, as
// Schedule.Validate does but for the window, which the replay enforces by
// truncating. The first that fails is the error, ahead of a fault of the
// load, and whatever fails, Stream reads cfgs to the end.
func Stream(g *graph.Digraph, load *traffic.Load, delta int, opt Options, cfgs <-chan schedule.Configuration) (*Result, error) {
	var st *state
	err := load.Validate(g)
	if err == nil {
		st, err = newState(g, load, opt)
	}
	cur := opt.Faults.Cursor() // a nil trace: nothing ever down
	tracer := opt.Obs.Tracer()
	var held [][]obs.Field // the sim.config events, emitted at the end
	slot, k, spent := 0, 0, false
	for cfg := range cfgs {
		if cerr := cfg.Check(g, k, opt.Ports); cerr != nil {
			for range cfgs {
			}
			return nil, cerr
		}
		k++
		if err != nil || spent {
			continue
		}
		// The delay (plus trace jitter) precedes each; the window cuts the last.
		d := delta + opt.Faults.Jitter(k-1)
		if spent = opt.Window > 0 && slot+d >= opt.Window; spent {
			continue
		}
		slot += d
		alpha := cfg.Alpha
		if opt.Window > 0 {
			alpha = min(alpha, opt.Window-slot)
		}
		if slot > math.MaxInt32 || alpha > math.MaxInt32-slot { // group.avail is 32 bits
			err = fmt.Errorf("simulate: configuration %d ends past slot %d, the last the replay can count", k-1, math.MaxInt32)
			continue
		}
		r0 := st.res
		st.res.Configs++
		st.res.ActiveLinkSlots += int64(alpha) * int64(len(cfg.Links))
		if opt.MultiHop {
			st.runMultiHop(cfg.Links, slot, alpha, cur)
		} else {
			st.runBulk(cfg.Links, slot, alpha, cur)
		}
		slot += alpha
		if opt.TrackBuffers {
			st.measureBuffers()
		}
		if tracer != nil {
			held = append(held, []obs.Field{obs.I("idx", int64(k-1)), obs.I("slot", int64(slot)), obs.I("alpha", int64(alpha)),
				obs.I("links", int64(len(cfg.Links))), obs.I("delivered", int64(st.res.Delivered-r0.Delivered)),
				obs.I("hops", int64(st.res.Hops-r0.Hops)), obs.I("lost_slots", st.res.FailedLinkSlots-r0.FailedLinkSlots)})
		}
	}
	if st == nil {
		return nil, err
	}
	st.res.SlotsUsed = slot
	opt.Obs.Counter("octopus_sim_configs_total").Add(int64(st.res.Configs))
	opt.Obs.Counter("octopus_sim_delivered_total").Add(int64(st.res.Delivered))
	opt.Obs.Counter("octopus_sim_hops_total").Add(int64(st.res.Hops))
	opt.Obs.Counter("octopus_sim_failed_link_slots_total").Add(st.res.FailedLinkSlots)
	for _, fields := range held {
		tracer.Emit("sim.config", fields...)
	}
	if err != nil {
		return nil, err
	}
	st.countStranded()
	if opt.Obs.Enabled() {
		opt.Obs.Gauge("octopus_sim_stranded").Set(int64(st.res.Stranded))
		r := &st.res
		tracer.Emit("sim.done", obs.I("configs", int64(r.Configs)), obs.I("delivered", int64(r.Delivered)),
			obs.I("total", int64(r.TotalPackets)), obs.I("hops", int64(r.Hops)), obs.I("psi", r.Psi),
			obs.I("stranded", int64(r.Stranded)), obs.I("slots_used", int64(r.SlotsUsed)))
	}
	return &st.res, nil
}

// runBulk replays one configuration in bulk mode: packets arriving during
// it cannot move again until the next one, so each link serves up to as
// many packets available at the start as it has slots in which it (and
// both endpoints) are up: alpha while nothing is down.
func (st *state) runBulk(links []graph.Edge, start, alpha int, cur *fault.Cursor) {
	end := start + alpha
	st.up = append(st.up[:0], make([]int, len(links))...)
	up := st.up
	for seg := start; seg < end; {
		cur.AdvanceTo(seg)
		segEnd := min(end, cur.NextChange())
		for i, e := range links {
			if cur.LinkUsable(e) { // true at once while nothing is down
				up[i] += segEnd - seg
			}
		}
		seg = segEnd
	}
	for i, e := range links {
		st.res.FailedLinkSlots += int64(alpha - up[i])
		st.serve(e, up[i], start, start+alpha)
	}
}

// countStranded records the packets left at intermediate nodes when the
// replay ended: undelivered traffic past its source but short of its
// destination.
func (st *state) countStranded() {
	var stranded []group
	for _, qi := range st.qidx { // in link id order
		for _, gi := range st.queues[qi] {
			if gr := st.groups[gi]; gr.pos > 0 {
				st.res.Stranded += int(gr.count)
				if st.flight != nil && st.flight.Tracks(int64(st.id(&gr))) {
					stranded = append(stranded, gr)
				}
			}
		}
	}
	// Queues are in link-id order: sort so flight journals read by flow.
	sort.Slice(stranded, func(i, j int) bool {
		if a, b := st.id(&stranded[i]), st.id(&stranded[j]); a != b {
			return a < b
		}
		return stranded[i].pos < stranded[j].pos
	})
	for i := range stranded {
		gr := &stranded[i]
		st.flight.Stranded(int64(st.id(gr)), st.res.SlotsUsed, int(gr.pos), int64(gr.count))
	}
}

// measureBuffers records the in-network buffer occupancy at a
// configuration boundary: packets sitting at a node that is neither their
// source nor their destination.
func (st *state) measureBuffers() {
	perNode := make(map[int]int)
	total := 0
	for _, q := range st.queues {
		for _, gi := range q {
			g := &st.groups[gi]
			if g.count == 0 || g.pos == 0 {
				continue
			}
			perNode[st.route(g)[g.pos]] += int(g.count)
			total += int(g.count)
		}
	}
	for _, c := range perNode {
		st.res.MaxNodeBuffer = max(st.res.MaxNodeBuffer, c)
	}
	st.res.MaxTotalBuffer = max(st.res.MaxTotalBuffer, total)
}

// runMultiHop replays one configuration slot by slot, letting packets chain
// across consecutive active links with a one-slot switching latency. Links
// that are down at a slot serve nothing that slot and the lost slot is
// accounted.
func (st *state) runMultiHop(links []graph.Edge, start, alpha int, cur *fault.Cursor) {
	es := slices.Clone(links)
	slices.SortFunc(es, func(a, b graph.Edge) int { return cmp.Or(a.From-b.From, a.To-b.To) })
	for s := 0; s < alpha; s++ {
		now := start + s
		cur.AdvanceTo(now)
		anyDown := cur.AnyDown()
		moved := 0
		for _, e := range es {
			if anyDown && !cur.LinkUsable(e) {
				st.res.FailedLinkSlots++
				continue
			}
			moved += st.serve(e, 1, now, now+1)
		}
		if moved == 0 {
			// Nothing moved, so nothing is in flight: unless a failure event
			// ahead can change which links are up, the remaining slots are
			// idle.
			if !anyDown && cur.NextChange() >= start+alpha {
				break
			}
		}
	}
}
