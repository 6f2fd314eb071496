// Package engine is the stepwise epoch state machine behind online
// scheduling — the paper's generalization to dynamically arriving flows
// (§9) — and the mhsd daemon: a mutable flow-state store (arrivals,
// cancellations, backlog carried between epochs) driven by an explicit
// PlanNext / Commit cycle. Run is the batch driver over it, pinned by the
// golden fingerprints in testdata/engine_golden.json.
//
// PlanNext computes the next epoch's configuration — admission of due
// arrivals, fault repair against the surviving fabric, and the Octopus
// plan — WITHOUT mutating the committed pipeline state, so a driver can
// plan epoch k+1 while epoch k still "executes" (the paper's
// reconfiguration delay Δ is free compute time). Commit applies a plan:
// delivery accounting, completion tracking, the residual backlog, and the
// epoch counter advance. PlanNext is a pure function of the committed
// state and the arrivals due at its snapshot, so a driver that plans while
// submissions arrive produces the schedules of a sequential driver given
// the same admissions — the property the daemon and its tests rest on.
//
// Concurrency contract: Submit, SubmitAll, Cancel, QueuedPackets, and
// QueuedFlows are safe to call from any goroutine at any time (the daemon
// calls them from HTTP handlers while a plan is in flight). Everything
// else — PlanNext, Commit, ReloadFabric, and the committed-state accessors
// — must be serialized by one driver goroutine.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"octopus/internal/core"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
)

// Arrival is one flow plus the slot at which the controller learns of it.
type Arrival struct {
	Flow traffic.Flow
	At   int
}

// Config configures a Pipeline. Core.Window is the epoch length.
type Config struct {
	Core core.Options

	// KeepPlans retains each epoch's scheduler result, scheduled load, and
	// fabric snapshot on its stat, so every per-epoch schedule can be
	// audited independently. Costs memory proportional to the run.
	KeepPlans bool

	// Trace optionally degrades and recovers the fabric according to a
	// slot-stamped failure script (nil runs failure-free). Only consulted
	// when Repair is set.
	Trace *fault.Trace

	// Repair enables the epoch-boundary fault machinery: surviving-fabric
	// snapshots, route repair of broken flows, delta jitter, and the
	// redundancy-deduplicated delivery accounting. Fault-tolerant batch
	// runs (Run under a trace) and the daemon set it; a failure-free run
	// does not.
	Repair bool

	// Reactive selects BFS rerouting for flows whose every route died
	// (with Repair); false drops them outright unless a redundancy
	// sibling survives.
	Reactive bool

	// Red ties redundancy-expanded copy flows into groups that count once
	// at delivery (see traffic.Provision).
	Red *traffic.Redundancy

	// Audit verifies every epoch's plan against the fabric it was planned
	// for, failing the run on any infeasibility.
	Audit bool

	// Flight receives per-flow lifecycle events (admitted, planned,
	// repaired/requeued, delivered/completed, dropped, cancelled) for
	// tracked flows, keyed by arrival flow IDs. Epoch fields are pipeline
	// epochs: boundary events carry the epoch being planned, delivery and
	// completion events carry epoch+1 (the completion epoch Run
	// reports). nil disables recording; the recorder is strictly
	// read-only — schedules and totals are bit-identical either way.
	Flight *flight.Recorder
}

// Totals is the pipeline's cumulative packet accounting. Packets are
// conserved: Submitted = Delivered + Dropped + Cancelled +
// SurvivedRedundant + backlogged + still queued.
type Totals struct {
	Submitted         int   `json:"submitted"`          // packets ever submitted
	UniqueSubmitted   int   `json:"unique_submitted"`   // submitted, counting each redundancy group once
	Delivered         int   `json:"delivered"`          // packets delivered (duplicates included)
	Dropped           int   `json:"dropped"`            // packets abandoned as unreachable
	Cancelled         int   `json:"cancelled"`          // packets discarded by cancellations
	SurvivedRedundant int   `json:"survived_redundant"` // packets of dead copies a sibling copy carried
	UniqueDelivered   int   `json:"unique_delivered"`   // delivered, counting each group by its best copy
	Psi               int64 `json:"psi"`                // Σ per-epoch plan ψ in traffic.WeightScale units
}

// Pipeline is the epoch state machine. Create one with New, feed it with
// Submit/SubmitAll, and drive it with PlanNext/Commit.
type Pipeline struct {
	g   *graph.Digraph
	cfg Config
	cur *fault.Cursor // non-nil in repair mode

	// mu guards the submission side: the arrival queue, the cancellation
	// requests, and the submission totals. Everything below it is
	// committed epoch state owned by the driver goroutine.
	mu          sync.Mutex
	queue       []Arrival
	nextArrival int
	queuedPkts  int
	// seen holds every arrival ID ever submitted (Submit's lifetime
	// duplicate-ID contract); the value is true while the arrival is still
	// queued. Looked up by ID only, never iterated or copied.
	seen            map[int]bool
	cancelled       map[int]bool // cancellations not yet applied
	submitted       int
	uniqueSubmitted int

	// Committed epoch state: the backlog carried between epochs, the slot
	// table of the arrivals it still holds packets of, and origin tying
	// each (renumbered) backlog flow to its arrival's slot. Backlog flow
	// IDs are always below len(origin).
	epoch      int
	backlog    *traffic.Load
	origin     []int32
	tab        flowTable
	groups     map[int]int32 // redundancy group primary ID -> index into groupBest
	groupBest  []int         // per group, the most any one copy has delivered
	unique     int
	delivered  int
	dropped    int
	cancelledP int
	survived   int
	psi        int64
	violations int // commits that left Totals' conservation identity broken
}

// New returns a Pipeline over fabric g. The trace, when present, is
// validated against the fabric up front.
func New(g *graph.Digraph, cfg Config) (*Pipeline, error) {
	if cfg.Core.Window <= 0 {
		return nil, errors.New("engine: Core.Window must be positive")
	}
	if cfg.Core.Delta < 0 {
		return nil, errors.New("engine: Core.Delta must be non-negative")
	}
	if cfg.Core.Delta >= cfg.Core.Window {
		// Every epoch would plan nothing: in repair mode as a skipped
		// jitter epoch, forever.
		return nil, fmt.Errorf("engine: Δ %d leaves no slot of window %d: %w", cfg.Core.Delta, cfg.Core.Window, core.ErrWindowTooSmall)
	}
	if err := cfg.Trace.Validate(g); err != nil {
		return nil, err
	}
	p := &Pipeline{
		g:         g,
		cfg:       cfg,
		backlog:   &traffic.Load{},
		seen:      make(map[int]bool),
		cancelled: make(map[int]bool),
	}
	if members := cfg.Red.Members(); len(members) > 0 {
		p.groups = make(map[int]int32, len(members))
		for primary := range members {
			p.groups[primary] = int32(len(p.groups))
		}
		p.groupBest = make([]int, len(p.groups))
	}
	if cfg.Repair {
		p.cur = cfg.Trace.Cursor()
	}
	return p, nil
}

// Submit queues one flow to be admitted at the first epoch boundary at or
// after slot at. Arrivals are admitted in submission order, stopping at
// the first entry not yet due — callers submitting a batch must order it
// by At (Run stable-sorts first; the daemon submits with the
// current boundary as At, which is non-decreasing by construction).
func (p *Pipeline) Submit(f traffic.Flow, at int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.submitLocked(f, at)
}

// submitLocked is Submit with p.mu held.
func (p *Pipeline) submitLocked(f traffic.Flow, at int) error {
	if at < 0 {
		return fmt.Errorf("engine: flow %d has negative arrival %d", f.ID, at)
	}
	if _, dup := p.seen[f.ID]; dup {
		return fmt.Errorf("engine: duplicate arrival flow ID %d", f.ID)
	}
	p.seen[f.ID] = true
	p.queue = append(p.queue, Arrival{Flow: f, At: at})
	p.queuedPkts += f.Size
	p.submitted += f.Size
	if !p.cfg.Red.Duplicate(f.ID) {
		p.uniqueSubmitted += f.Size
	}
	return nil
}

// SubmitAll submits the arrivals in order under one hold of the submission
// lock, so no PlanNext snapshot falls inside the batch. It stops at the
// first error, returned as a *BatchError.
func (p *Pipeline) SubmitAll(arrivals []Arrival) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, a := range arrivals {
		if err := p.submitLocked(a.Flow, a.At); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	return nil
}

// BatchError is SubmitAll's error: the arrivals before Index were queued,
// the one at Index was refused with Err, and none after it was tried.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string { return e.Err.Error() }
func (e *BatchError) Unwrap() error { return e.Err }

// Cancel asks the pipeline to discard arrival id — whether still queued or
// already admitted into the backlog — at the next committed boundary.
// Returns false for an ID that was never submitted. Cancelling a flow that
// has already left the pipeline (delivered, dropped or cancelled) is a
// harmless no-op: the request is forgotten at the next commit.
func (p *Pipeline) Cancel(id int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.seen[id]; !ok {
		return false
	}
	p.cancelled[id] = true
	return true
}

// QueuedPackets returns the packets submitted but not yet admitted.
func (p *Pipeline) QueuedPackets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queuedPkts
}

// QueuedFlows returns the flows submitted but not yet admitted.
func (p *Pipeline) QueuedFlows() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue) - p.nextArrival
}

// Epoch returns the next epoch to be planned (i.e. the number of epochs
// committed so far). Driver-side.
func (p *Pipeline) Epoch() int { return p.epoch }

// Boundary returns the slot of the next epoch boundary. Driver-side.
func (p *Pipeline) Boundary() int { return p.epoch * p.cfg.Core.Window }

// Fabric returns the current fabric. Driver-side.
func (p *Pipeline) Fabric() *graph.Digraph { return p.g }

// BacklogPackets returns the packets admitted but not yet delivered,
// dropped, or cancelled. Driver-side.
func (p *Pipeline) BacklogPackets() int { return p.backlog.TotalPackets() }

// Done reports whether nothing is queued or backlogged. Driver-side.
func (p *Pipeline) Done() bool {
	p.mu.Lock()
	drained := p.nextArrival == len(p.queue)
	p.mu.Unlock()
	return drained && len(p.backlog.Flows) == 0
}

// Totals returns the cumulative packet accounting. Driver-side.
func (p *Pipeline) Totals() Totals {
	p.mu.Lock()
	t := Totals{Submitted: p.submitted, UniqueSubmitted: p.uniqueSubmitted}
	p.mu.Unlock()
	t.Delivered = p.delivered
	t.Dropped = p.dropped
	t.Cancelled = p.cancelledP
	t.SurvivedRedundant = p.survived
	t.UniqueDelivered = p.unique
	t.Psi = p.psi
	return t
}

// LiveFlows returns the number of arrivals with packets still in the
// backlog — the occupied slots of the flow table. Driver-side.
func (p *Pipeline) LiveFlows() int { return len(p.tab.slots) - len(p.tab.free) }

// ErrFabricTooSmall reports a reload onto a fabric without the nodes a
// live flow's endpoints need.
var ErrFabricTooSmall = errors.New("fabric too small for a live flow")

// ReloadFabric swaps the fabric under the pipeline at an epoch boundary.
// Must be called by the driver between Commit and the next PlanNext, and
// only in repair mode: flows whose routes the new fabric breaks are
// repaired (or dropped as unreachable) at the next planned boundary.
// Fabrics that cannot host an active flow's endpoints are rejected with
// ErrFabricTooSmall.
func (p *Pipeline) ReloadFabric(g *graph.Digraph) error {
	if !p.cfg.Repair {
		return errors.New("engine: fabric reload requires repair mode")
	}
	if !p.cfg.Trace.Empty() {
		return errors.New("engine: cannot reload the fabric while replaying a failure trace")
	}
	check := func(id, src, dst int) error {
		if src >= g.N() || dst >= g.N() {
			return fmt.Errorf("engine: %w: %d nodes cannot host flow %d (%d->%d)",
				ErrFabricTooSmall, g.N(), id, src, dst)
		}
		return nil
	}
	for i := range p.backlog.Flows {
		f := &p.backlog.Flows[i]
		if err := check(p.tab.slots[p.origin[f.ID]].id, f.Src, f.Dst); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.queue[p.nextArrival:] {
		if err := check(a.Flow.ID, a.Flow.Src, a.Flow.Dst); err != nil {
			return err
		}
	}
	p.g = g
	return nil
}
