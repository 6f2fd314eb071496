// Package flight is the per-flow lifecycle journal — a "flight recorder"
// for flows. Where internal/obs records planner internals (how many α
// probes, how long a matching took), flight answers the operator question
// "what happened to flow 8421?": each tracked flow accumulates a compact
// event chain — admitted, planned into a configuration, per-hop advance,
// stranded/requeued/repaired, replicated-copy dedup, delivered, dropped —
// in a bounded ring so memory stays bounded no matter how long the run.
//
// The ring is one slice of 40-byte records (flow ID, kind, epoch and three
// int64 arguments) that grows on demand up to Config.Cap and then
// overwrites the oldest, so a recorder costs what it holds: a full ring of
// 64k events 2.5 MiB, one that never fills only its events.
//
// At a million flows recording every hop of every flow would dwarf the
// workload, so the recorder samples deterministically by flow ID: a flow
// is tracked iff mix64(id) % sample == 0, where mix64 is the splitmix64
// finalizer. The decision depends only on the flow ID and the immutable
// sample rate — never on timing, goroutine interleaving, or map order —
// so two runs of the same workload track the same flows, and the check is
// lock-free. sample <= 1 tracks everything (exhaustive mode for small
// runs).
//
// Like every obs instrument, the nil *Recorder is a valid no-op, and
// recording is strictly read-only with respect to the scheduler: enabling
// the recorder must never change a schedule, a metric, or a tie-break.
// That invariant is pinned by registry-wide fingerprint equivalence tests
// (internal/verify/diff) with the recorder on and off.
package flight

import (
	"sync"

	"octopus/internal/obs"
)

// Kind identifies one lifecycle event type.
type Kind uint8

const (
	// KindAdmitted: flow entered the system. A=size (packets), B=src, C=dst.
	KindAdmitted Kind = iota
	// KindPlanned: flow was scheduled into an epoch's configuration chain.
	// A=configurations in the schedule, B=matcher code, C=pending packets.
	KindPlanned
	// KindHop: packets advanced one hop. A=new position on the route,
	// B=route length, C=packets moved.
	KindHop
	// KindStranded: packets stuck mid-route when service ended or a link
	// failed. A=position, C=packets stranded.
	KindStranded
	// KindRequeued: stranded packets were requeued from their current
	// position for a later epoch. A=position requeued from, C=packets.
	KindRequeued
	// KindRepaired: flow was rerouted onto a surviving path. A=new route
	// length, C=packets rerouted.
	KindRepaired
	// KindDedup: duplicate packets from a redundant copy group were
	// discounted after the primary delivered. C=duplicate packets.
	KindDedup
	// KindDelivered: packets reached the destination. A=packets this
	// event, B=cumulative delivered since admission (A again for a flow
	// whose admission was not observed or that has already ended).
	KindDelivered
	// KindCompleted: every packet of the flow has been delivered.
	// A=completion latency in epochs since admission, B=SLO slack
	// (target - latency, floored at 0), C=1 if within the SLO target.
	KindCompleted
	// KindDropped: flow abandoned (unreachable after faults). C=packets
	// undelivered.
	KindDropped
	// KindCancelled: flow cancelled by the client. C=packets undelivered.
	KindCancelled

	numKinds = iota
)

var kindNames = [numKinds]string{
	KindAdmitted:  "admitted",
	KindPlanned:   "planned",
	KindHop:       "hop",
	KindStranded:  "stranded",
	KindRequeued:  "requeued",
	KindRepaired:  "repaired",
	KindDedup:     "dedup",
	KindDelivered: "delivered",
	KindCompleted: "completed",
	KindDropped:   "dropped",
	KindCancelled: "cancelled",
}

// String returns the stable wire name of the kind ("admitted", "hop", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded journal entry. The meaning of A/B/C depends on
// Kind; see the Kind constants.
type Event struct {
	Seq   uint64 `json:"seq"`
	Flow  int64  `json:"flow"`
	Kind  Kind   `json:"-"`
	Epoch int32  `json:"epoch"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	C     int64  `json:"c"`
}

// Config parameterizes a Recorder.
type Config struct {
	// Sample tracks one flow in Sample by deterministic flow-ID hash;
	// values <= 1 track every flow (exhaustive mode).
	Sample int
	// Cap is the most events the ring keeps (default 65536). The ring
	// grows to it as events arrive; once full, new events overwrite the
	// oldest.
	Cap int
	// SLOEpochs is the completion-latency target used for the on-time
	// fraction and slack histogram. Flows have no per-flow deadlines yet
	// (a roadmap item); the SLO is a single operator-set target. 0 means
	// no target: every completion counts as on time with zero slack.
	SLOEpochs int
	// Metrics is the obs registry the recorder's aggregates live in
	// (octopus_flight_* metrics). Nil keeps them in a private registry.
	Metrics *obs.Registry
}

// DefaultCap is the ring's bound when Config.Cap is zero.
const DefaultCap = 1 << 16

// flowState is the per-tracked-flow aggregate behind the SLO metrics. It
// is opened by the flow's admission and released by its terminal event —
// completed, dropped or cancelled — so the map holding it is bounded by
// the live tracked flows, not by the flows ever admitted. (A copy flow
// discarded as redundant has no terminal event and keeps its state; only
// batch runs, whose recorder lives as long as the run, configure copies.)
type flowState struct {
	admitEpoch int32
	size       int64
	delivered  int64
}

// slot is one retained event; its sequence number is its place in the
// ring (see scanLocked).
type slot struct {
	flow, a, b, c int64
	epoch         int32
	kind          Kind
}

// Recorder is the journal. All methods are safe for concurrent use; the
// nil *Recorder is a no-op everywhere.
type Recorder struct {
	sample uint64 // immutable after New; read lock-free by Tracks

	mu   sync.Mutex
	seq  uint64 // total events ever recorded; ring index = seq % capN
	capN int    // the most events the ring holds
	ring []slot // len(ring) = min(seq, capN)

	state map[int64]*flowState

	// The SLO aggregates, bound once to the registry's instruments. All
	// but events change only under mu, so Stats reads them consistently.
	sloEpochs  int64
	admitted   *obs.Counter
	completed  *obs.Counter
	onTime     *obs.Counter
	events     *obs.Counter
	completion *obs.Histogram // epochs from admission to completion
	slack      *obs.Histogram // max(0, SLO - completion)
	onTimePct  *obs.Gauge
}

// New builds a recorder. The zero Config means: track every flow, 64k
// ring, no SLO target, a private registry.
func New(cfg Config) *Recorder {
	capN := cfg.Cap
	if capN <= 0 {
		capN = DefaultCap
	}
	sample := uint64(1)
	if cfg.Sample > 1 {
		sample = uint64(cfg.Sample)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Recorder{
		sample:     sample,
		capN:       capN,
		state:      make(map[int64]*flowState),
		sloEpochs:  int64(cfg.SLOEpochs),
		admitted:   reg.Counter("octopus_flight_admitted_total"),
		completed:  reg.Counter("octopus_flight_completed_total"),
		onTime:     reg.Counter("octopus_flight_ontime_total"),
		events:     reg.Counter("octopus_flight_events_total"),
		completion: reg.Histogram("octopus_flight_completion_epochs"),
		slack:      reg.Histogram("octopus_flight_slack_epochs"),
		onTimePct:  reg.Gauge("octopus_flight_ontime_permille"),
	}
}

// mix64 is the splitmix64 finalizer (Steele, Lea & Flood 2014): a cheap
// bijective avalanche so consecutive flow IDs land in uncorrelated
// sampling residues.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Tracks reports whether the recorder samples this flow ID. It is
// lock-free and deterministic: same ID and sample rate → same answer in
// every run. Nil recorders track nothing, so instrumented hot paths can
// guard on Tracks alone.
func (r *Recorder) Tracks(flow int64) bool {
	if r == nil {
		return false
	}
	if r.sample <= 1 {
		return true
	}
	return mix64(uint64(flow))%r.sample == 0
}

// Sample returns the sampling denominator (1 = exhaustive, 0 for nil).
func (r *Recorder) Sample() int {
	if r == nil {
		return 0
	}
	return int(r.sample)
}

// record appends one event to the ring. Caller must have checked Tracks.
func (r *Recorder) record(flow int64, kind Kind, epoch int, a, b, c int64) {
	r.mu.Lock()
	r.recordLocked(flow, kind, epoch, a, b, c)
	r.mu.Unlock()
	r.events.Inc()
}

// Admit records admission of a tracked flow and opens its SLO state.
func (r *Recorder) Admit(flow int64, epoch int, size, src, dst int64) {
	if !r.Tracks(flow) {
		return
	}
	r.mu.Lock()
	if r.state[flow] == nil {
		r.state[flow] = &flowState{admitEpoch: int32(epoch), size: size}
		r.admitted.Inc()
	}
	r.recordLocked(flow, KindAdmitted, epoch, size, src, dst)
	r.mu.Unlock()
	r.events.Inc()
}

// Planned records that the flow was scheduled into epoch's configuration
// chain: configs in the schedule, the matcher code (MatcherExact or MatcherGreedy), and
// the flow's pending packets entering the epoch.
func (r *Recorder) Planned(flow int64, epoch int, configs, matcher, pending int64) {
	if !r.Tracks(flow) {
		return
	}
	r.record(flow, KindPlanned, epoch, configs, matcher, pending)
}

// Hop records a one-hop advance of count packets to route position pos.
func (r *Recorder) Hop(flow int64, epoch, pos, routeLen int, count int64) {
	if !r.Tracks(flow) {
		return
	}
	r.record(flow, KindHop, epoch, int64(pos), int64(routeLen), count)
}

// Stranded records count packets stuck at route position pos.
func (r *Recorder) Stranded(flow int64, epoch, pos int, count int64) {
	if !r.Tracks(flow) {
		return
	}
	r.record(flow, KindStranded, epoch, int64(pos), 0, count)
}

// Requeued records stranded packets re-entering the backlog from pos.
func (r *Recorder) Requeued(flow int64, epoch, pos int, count int64) {
	if !r.Tracks(flow) {
		return
	}
	r.record(flow, KindRequeued, epoch, int64(pos), 0, count)
}

// Repaired records a reroute onto a surviving path of routeLen hops.
func (r *Recorder) Repaired(flow int64, epoch, routeLen int, count int64) {
	if !r.Tracks(flow) {
		return
	}
	r.record(flow, KindRepaired, epoch, int64(routeLen), 0, count)
}

// Dedup records duplicate packets discounted from a redundant copy group.
func (r *Recorder) Dedup(flow int64, epoch int, dups int64) {
	if !r.Tracks(flow) {
		return
	}
	r.record(flow, KindDedup, epoch, 0, 0, dups)
}

// Delivered records n packets arriving. When the cumulative count reaches
// the admitted size the completion event and SLO aggregates fire too, so
// drivers that lack an explicit completion signal (offline simulate) get
// one for free. Drivers with an exact signal should call Completed.
func (r *Recorder) Delivered(flow int64, epoch int, n int64) {
	if !r.Tracks(flow) || n <= 0 {
		return
	}
	r.mu.Lock()
	st := r.state[flow]
	total := n
	if st != nil {
		st.delivered += n
		total = st.delivered
	}
	r.recordLocked(flow, KindDelivered, epoch, n, total, 0)
	events := int64(1)
	if st != nil && st.size > 0 && st.delivered >= st.size {
		r.completeLocked(flow, st, epoch)
		events++
	}
	r.mu.Unlock()
	r.events.Add(events)
}

// Completed records that every packet of the flow has been delivered.
// Safe to call alongside Delivered-driven completion, as the engine does:
// the first completion releases the flow's state, and a completion for a
// flow without one — already ended, or never admitted — is ignored.
func (r *Recorder) Completed(flow int64, epoch int) {
	if !r.Tracks(flow) {
		return
	}
	r.mu.Lock()
	st := r.state[flow]
	if st == nil {
		r.mu.Unlock()
		return
	}
	r.completeLocked(flow, st, epoch)
	r.mu.Unlock()
	r.events.Inc()
}

// completeLocked stamps the completion event and SLO aggregates and
// releases the flow's state.
func (r *Recorder) completeLocked(flow int64, st *flowState, epoch int) {
	delete(r.state, flow)
	r.completed.Inc()
	latency := int64(epoch) - int64(st.admitEpoch)
	if latency < 0 {
		latency = 0
	}
	slack := int64(0)
	onTime := int64(1)
	if r.sloEpochs > 0 {
		slack = r.sloEpochs - latency
		if slack < 0 {
			slack = 0
			onTime = 0
		}
	}
	r.completion.Observe(latency)
	r.slack.Observe(slack)
	r.onTime.Add(onTime)
	r.onTimePct.Set(r.onTime.Value() * 1000 / r.completed.Value())
	r.recordLocked(flow, KindCompleted, epoch, latency, slack, onTime)
}

// Dropped records the flow abandoned with undelivered packets remaining.
// It can no longer complete, so its state is released.
func (r *Recorder) Dropped(flow int64, epoch int, remaining int64) {
	r.end(flow, KindDropped, epoch, remaining)
}

// Cancelled records a client cancellation with remaining packets unsent
// and releases the flow's state.
func (r *Recorder) Cancelled(flow int64, epoch int, remaining int64) {
	r.end(flow, KindCancelled, epoch, remaining)
}

// end journals a terminal event that is not a completion.
func (r *Recorder) end(flow int64, kind Kind, epoch int, remaining int64) {
	if !r.Tracks(flow) {
		return
	}
	r.mu.Lock()
	delete(r.state, flow)
	r.recordLocked(flow, kind, epoch, 0, 0, remaining)
	r.mu.Unlock()
	r.events.Inc()
}

// recordLocked is record without the lock round-trip, for compound
// operations already holding mu. Until the ring holds capN events it
// appends, doubling its storage but never past capN; then it overwrites
// the oldest.
func (r *Recorder) recordLocked(flow int64, kind Kind, epoch int, a, b, c int64) {
	ev := slot{flow: flow, a: a, b: b, c: c, epoch: int32(epoch), kind: kind}
	if n := len(r.ring); n == r.capN {
		r.ring[r.seq%uint64(n)] = ev
	} else {
		if n == cap(r.ring) {
			r.ring = append(make([]slot, 0, min(max(2*n, 64), r.capN)), r.ring...)
		}
		r.ring = append(r.ring, ev)
	}
	r.seq++
}

// Events returns the journal entries for one flow, oldest first, limited
// to what the ring still holds. Nil and empty results are both possible:
// an untracked flow, or a tracked flow whose events have been overwritten.
func (r *Recorder) Events(flow int64) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	r.scanLocked(func(ev Event) {
		if ev.Flow == flow {
			out = append(out, ev)
		}
	})
	return out
}

// All returns every retained event, oldest first.
func (r *Recorder) All() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	r.scanLocked(func(ev Event) { out = append(out, ev) })
	return out
}

// scanLocked visits retained events oldest-first under mu.
func (r *Recorder) scanLocked(fn func(Event)) {
	n := uint64(len(r.ring))
	for s := r.seq - n; s < r.seq; s++ {
		e := &r.ring[s%n]
		fn(Event{Seq: s, Flow: e.flow, Kind: e.kind, Epoch: e.epoch, A: e.a, B: e.b, C: e.c})
	}
}

// Snapshot is a point-in-time roll-up of the recorder's SLO aggregates.
// TrackedFlows counts the flows ever tracked, live or ended; a flow is
// tracked from its admission, so it equals Admitted.
type Snapshot struct {
	Sample         int     `json:"sample"`
	Events         uint64  `json:"events"`
	Retained       int     `json:"retained"`
	TrackedFlows   int     `json:"tracked_flows"`
	Admitted       int64   `json:"admitted"`
	Completed      int64   `json:"completed"`
	OnTime         int64   `json:"on_time"`
	OnTimeFraction float64 `json:"on_time_fraction"`
	SLOEpochs      int64   `json:"slo_epochs"`
	CompletionP50  int64   `json:"completion_p50_epochs"`
	CompletionP99  int64   `json:"completion_p99_epochs"`
	SlackP50       int64   `json:"slack_p50_epochs"`
}

// Stats returns the current roll-up. Safe to call while recording.
func (r *Recorder) Stats() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	admitted, completed, onTime := r.admitted.Value(), r.completed.Value(), r.onTime.Value()
	s := Snapshot{
		Sample:        int(r.sample),
		Events:        r.seq,
		Retained:      len(r.ring),
		TrackedFlows:  int(admitted),
		Admitted:      admitted,
		Completed:     completed,
		OnTime:        onTime,
		SLOEpochs:     r.sloEpochs,
		CompletionP50: r.completion.Quantile(0.5),
		CompletionP99: r.completion.Quantile(0.99),
		SlackP50:      r.slack.Quantile(0.5),
	}
	if completed > 0 {
		s.OnTimeFraction = float64(onTime) / float64(completed)
	}
	return s
}

// Matcher codes carried in KindPlanned.B — a compact stable encoding of
// the matching kind so flight logs are self-describing without string
// storage in the ring. The values mirror core.Matcher (pinned by a test
// in internal/engine, which can see both packages).
const (
	MatcherExact int64 = iota
	MatcherGreedy
)
