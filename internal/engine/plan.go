package engine

import (
	"errors"
	"fmt"
	"maps"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// FaultEpochStat summarizes one scheduling epoch: what it admitted,
// scheduled and delivered, and its degradation accounting.
type FaultEpochStat struct {
	Epoch     int // 0-based epoch index
	Arrived   int // packets newly admitted at this epoch boundary
	Offered   int // packets scheduled this epoch (arrivals + backlog)
	Delivered int
	Backlog   int // packets carried into the next epoch

	// Completed lists the arrival flow IDs whose last packet was delivered
	// in this epoch (their completion epoch is Epoch+1). Flows that lost
	// packets to unreachability or cancellation never appear.
	Completed []int

	// Plan and Load are the epoch's scheduler result and the exact load it
	// scheduled (nil unless Config.KeepPlans).
	Plan *core.Result
	Load *traffic.Load

	FailedLinks int // links individually down at the boundary snapshot
	FailedNodes int // nodes down at the boundary snapshot

	// Rerouted counts packets whose every route was broken by failures and
	// was repaired onto a shortest surviving path at this boundary.
	Rerouted int
	// Stranded counts the rerouted packets that were requeued from
	// in-flight positions: stuck at an intermediate node whose onward
	// route died.
	Stranded int
	// Dropped counts packets dropped at this boundary because no surviving
	// route to their destination exists (source or destination unreachable
	// on the degraded fabric).
	Dropped int

	// SurvivedRedundant counts packets of copy flows whose every route died
	// at this boundary but whose redundancy group kept another copy with a
	// live route: the dead copy is discarded without reroute or drop — the
	// surviving copy already carries the group's data (always 0 without
	// Config.Red).
	SurvivedRedundant int

	// UniqueDelivered is the epoch's redundancy-deduplicated delivery: the
	// increase of the run's unique delivered count (each copy group counts
	// once, by its best copy) during this epoch. Without redundancy it
	// mirrors Delivered.
	UniqueDelivered int

	// Fabric is the epoch's surviving-fabric snapshot (nil unless
	// Config.KeepPlans), so each plan can be re-audited independently.
	Fabric *graph.Digraph

	// Psi is the epoch plan's ψ contribution in traffic.WeightScale units
	// (0 for epochs that scheduled nothing).
	Psi int64

	// Cancelled counts packets discarded at this boundary because their
	// arrival was cancelled while queued or in the backlog.
	Cancelled int
}

// PlanKind classifies what a planned epoch will do when committed.
type PlanKind int

const (
	// PlanScheduled carries an Octopus plan for the epoch's merged load.
	PlanScheduled PlanKind = iota
	// PlanIdle schedules nothing but more arrivals are still queued.
	PlanIdle
	// PlanJitterSkipped idles the epoch because the failure trace's delta
	// jitter left no room for even one configuration.
	PlanJitterSkipped
	// PlanDrained means nothing is backlogged or queued: the pipeline has
	// no work now and none pending. Run stops here; the daemon
	// keeps committing drained epochs while it waits for submissions.
	PlanDrained
)

// Plan is one epoch's computed configuration, produced by PlanNext and
// applied by Commit. Stat carries the epoch's accounting as far as
// planning could fill it; Commit completes the delivery fields.
type Plan struct {
	Epoch int
	Kind  PlanKind
	Stat  FaultEpochStat

	// Planning-side snapshots consumed by Commit. A plan never copies the
	// committed flow table: it is an overlay over it. Work-flow IDs below
	// base are committed backlog flows, resolved through Pipeline.origin;
	// ID base+k is admitted[k], which gets its slot at Commit.
	nDue      int           // queue entries consumed (admitted or cancelled)
	cancels   map[int]bool  // the cancellation requests pending at planning time
	cancelled []int32       // slots of the live flows this plan cancels
	unqueued  []int         // arrivals this plan cancels while still queued
	base      int           // len(Pipeline.origin) at planning time
	admitted  []admission   // admissions in queue order
	lost      []loss        // packets repair gave up on, per work flow
	work      *traffic.Load // the load planned: backlog − cancelled + admitted, repaired
	fabric    *graph.Digraph
	sched     *core.Result
	residual  *traffic.Load // the next backlog, IDs dense from 0
	remap     []int         // residual flow ID -> work flow ID
	committed bool
}

type admission struct{ id, size, src, dst int }

// loss is size packets of work flow id that repair dropped as unreachable
// or discarded as redundant duplicates.
type loss struct{ id, size int }

// arrivalOf resolves a work-flow ID of plan to the arrival it carries
// packets of: the arrival's flow ID and the node it entered the network at.
func (p *Pipeline) arrivalOf(plan *Plan, id int) (arrival, src int) {
	if id < plan.base {
		f := &p.tab.slots[p.origin[id]]
		return f.id, f.src
	}
	a := &plan.admitted[id-plan.base]
	return a.id, a.src
}

// Result returns the epoch's scheduler result (nil for unscheduled plan
// kinds). Unlike Stat.Plan it is available without Config.KeepPlans, so a
// long-lived driver can fingerprint or inspect each plan without paying
// for per-epoch load clones.
func (pl *Plan) Result() *core.Result { return pl.sched }

// PlanNext computes the next epoch's configuration without touching the
// committed pipeline state: it snapshots the due arrivals and pending
// cancellations, advances the failure cursor to the boundary, repairs the
// merged load against the surviving fabric (repair mode), and runs the
// Octopus planner on it. The only externally visible effects are the
// observer's repair/planner events; the backlog, flow table and epoch
// counter change only in Commit — so a driver may overlap this call with
// the "execution" of the previously committed epoch. Its cost follows the
// live load: nothing whose size grows with the flows ever admitted is
// walked or copied.
func (p *Pipeline) PlanNext() (*Plan, error) {
	boundary := p.epoch * p.cfg.Core.Window
	if p.cur != nil {
		p.cur.AdvanceTo(boundary)
	}

	p.mu.Lock()
	i := p.nextArrival
	for i < len(p.queue) && p.queue[i].At <= boundary {
		i++
	}
	// Reading due outside the lock below is safe: Submit only appends past
	// len(queue) and nextArrival only advances in Commit, so these entries
	// are immutable until this plan commits.
	due := p.queue[p.nextArrival:i]
	drained := i == len(p.queue)
	var cancels map[int]bool
	if len(p.cancelled) > 0 {
		cancels = maps.Clone(p.cancelled)
	}
	p.mu.Unlock()

	plan := &Plan{Epoch: p.epoch, nDue: len(due), cancels: cancels, base: len(p.origin)}
	plan.Stat.Epoch = p.epoch

	work := &traffic.Load{}
	if n := len(p.backlog.Flows) + len(due); n > 0 {
		work.Flows = make([]traffic.Flow, 0, n)
	}
	for _, f := range p.backlog.Flows {
		if s := p.origin[f.ID]; cancels[p.tab.slots[s].id] {
			plan.Stat.Cancelled += f.Size
			plan.cancelled = append(plan.cancelled, s)
			continue
		}
		work.Flows = append(work.Flows, f)
	}
	for _, a := range due {
		f := a.Flow
		if cancels[f.ID] {
			plan.Stat.Cancelled += f.Size
			plan.unqueued = append(plan.unqueued, f.ID)
			continue
		}
		plan.admitted = append(plan.admitted, admission{id: f.ID, size: f.Size, src: f.Src, dst: f.Dst})
		f.ID = plan.base + len(plan.admitted) - 1
		work.Flows = append(work.Flows, f)
		plan.Stat.Arrived += f.Size
	}
	plan.work = work

	plan.fabric = p.g
	if p.cur != nil {
		plan.fabric = p.cur.SurvivingOf(p.g)
		plan.Stat.FailedLinks = p.cur.FailedLinks()
		plan.Stat.FailedNodes = p.cur.FailedNodes()
	}
	if p.cfg.Repair {
		p.repair(plan)
		observeRepair(p.cfg.Core.Obs, &plan.Stat)
	}

	if len(work.Flows) == 0 {
		if drained {
			plan.Kind = PlanDrained
		} else {
			plan.Kind = PlanIdle
		}
		return plan, nil
	}

	coreOpt := p.cfg.Core
	if p.cfg.Repair {
		// The trace's jitter stretches this epoch's reconfiguration delay;
		// a jitter so large that no configuration fits idles the epoch.
		coreOpt.Delta = p.cfg.Core.Delta + p.cfg.Trace.Jitter(p.epoch)
		if coreOpt.Delta >= coreOpt.Window {
			plan.Stat.Backlog = work.TotalPackets()
			plan.Kind = PlanJitterSkipped
			return plan, nil
		}
	}

	s, err := core.New(plan.fabric, work, coreOpt)
	if err != nil {
		return nil, err
	}
	sres, err := s.Run()
	if err != nil {
		return nil, err
	}
	if p.cfg.Audit {
		if err := auditEpoch(plan.fabric, work, sres, coreOpt, p.epoch); err != nil {
			return nil, err
		}
	}
	plan.Kind = PlanScheduled
	plan.sched = sres
	plan.residual, plan.remap = s.ResidualLoadMap()
	return plan, nil
}

// Commit applies a plan produced by PlanNext: admissions and cancellations
// become permanent, delivery is accounted against the arrivals, the
// residual load becomes the next backlog, and the epoch counter advances.
// Only the flows the epoch changed are touched, and an arrival's slot is
// retired as soon as its last packet has left the backlog. The returned
// stat is the plan's, with the delivery fields completed. Plans must be
// committed in order; a plan from a stale epoch is rejected.
func (p *Pipeline) Commit(plan *Plan) (*FaultEpochStat, error) {
	if plan == nil {
		return nil, errors.New("engine: Commit of a nil plan")
	}
	if plan.committed {
		return nil, fmt.Errorf("engine: plan for epoch %d already committed", plan.Epoch)
	}
	if plan.Epoch != p.epoch {
		return nil, fmt.Errorf("engine: stale plan for epoch %d (pipeline at epoch %d)", plan.Epoch, p.epoch)
	}
	plan.committed = true

	p.mu.Lock()
	for _, a := range p.queue[p.nextArrival : p.nextArrival+plan.nDue] {
		p.queuedPkts -= a.Flow.Size
		p.seen[a.Flow.ID] = false
	}
	p.nextArrival += plan.nDue
	// Every request the plan saw is now spent — applied, or naming a flow
	// that had already left the pipeline — unless its arrival is still
	// queued for a later boundary.
	for id := range plan.cancels {
		if !p.seen[id] {
			delete(p.cancelled, id)
		}
	}
	p.compactQueueLocked()
	entered := p.submitted - p.queuedPkts // packets admitted or cancelled so far
	p.mu.Unlock()

	rec := p.cfg.Flight
	for _, a := range plan.admitted {
		group := int32(-1)
		if primary, ok := p.cfg.Red.GroupOf(a.id); ok {
			group = p.groups[primary]
		}
		p.origin = append(p.origin, p.tab.admit(liveFlow{id: a.id, src: a.src, group: group, outstanding: a.size}))
		rec.Admit(int64(a.id), plan.Epoch, int64(a.size), int64(a.src), int64(a.dst))
	}
	for _, id := range plan.unqueued {
		rec.Cancelled(int64(id), plan.Epoch, 0)
	}
	for _, s := range plan.cancelled {
		// An arrival split over several backlog flows is listed once for
		// each; the first visit retires it.
		if f := &p.tab.slots[s]; f.outstanding > 0 {
			rec.Cancelled(int64(f.id), plan.Epoch, int64(f.outstanding+f.lost))
			p.tab.take(s, f.outstanding)
		}
	}
	for _, l := range plan.lost {
		s := p.origin[l.id]
		p.tab.slots[s].lost += l.size
		p.tab.take(s, l.size)
	}
	p.cancelledP += plan.Stat.Cancelled
	p.dropped += plan.Stat.Dropped
	p.survived += plan.Stat.SurvivedRedundant

	stat := &plan.Stat
	if plan.Kind == PlanScheduled {
		p.commitSchedule(plan)
	} else {
		p.backlog = plan.work
	}
	p.epoch++

	conserved := entered == p.delivered+p.dropped+p.cancelledP+p.survived+p.tab.held
	observeState(p.cfg.Core.Obs, p.LiveFlows(), conserved)
	if !conserved {
		p.violations++
	}
	return stat, nil
}

// commitSchedule accounts a scheduled plan's deliveries against the
// arrivals and makes its residual the backlog. Flight events use arrival
// IDs throughout; deliveries land at epoch+1, the boundary by which the
// epoch's transmissions have happened.
func (p *Pipeline) commitSchedule(plan *Plan) {
	sres, stat, rec := plan.sched, &plan.Stat, p.cfg.Flight
	// pending[id]: the packets of work flow id the plan left undelivered.
	pending := make([]int, len(p.origin))
	origin := make([]int32, len(plan.remap))
	for id, workID := range plan.remap {
		pending[workID] += plan.residual.Flows[id].Size
		origin[id] = p.origin[workID]
	}
	nConfigs := int64(len(sres.Schedule.Configs))
	matcher := int64(p.cfg.Core.Matcher)
	uniqueBefore := p.unique
	for i := range plan.work.Flows {
		f := &plan.work.Flows[i]
		s := p.origin[f.ID]
		fl := &p.tab.slots[s]
		if rec.Tracks(int64(fl.id)) {
			rec.Planned(int64(fl.id), plan.Epoch, nConfigs, matcher, int64(f.Size))
		}
		delivered := f.Size - pending[f.ID]
		if delivered == 0 {
			continue
		}
		fl.delivered += delivered
		// Unique delivery counts an ungrouped flow's own packets and each
		// redundancy group once, by its best copy.
		if fl.group < 0 {
			p.unique += delivered
		} else if best := &p.groupBest[fl.group]; fl.delivered > *best {
			p.unique += fl.delivered - *best
			*best = fl.delivered
		}
		rec.Delivered(int64(fl.id), plan.Epoch+1, int64(delivered))
		if p.tab.take(s, delivered) && fl.lost == 0 {
			stat.Completed = append(stat.Completed, fl.id)
			rec.Completed(int64(fl.id), plan.Epoch+1)
		}
	}
	p.delivered += sres.Delivered
	p.psi += sres.Psi
	stat.Psi = sres.Psi
	stat.UniqueDelivered = p.unique - uniqueBefore
	stat.Offered = sres.TotalPackets
	stat.Delivered = sres.Delivered
	stat.Backlog = sres.Pending
	observeEpoch(p.cfg.Core.Obs, stat, len(sres.Schedule.Configs))
	if p.cfg.KeepPlans {
		stat.Plan = sres
		stat.Load = plan.work.Clone()
		stat.Fabric = plan.fabric
	}
	p.backlog = plan.residual
	p.origin = origin
}

// compactQueueLocked drops the consumed head of the arrival queue once it
// dominates the slice, so a long-lived daemon does not retain every
// arrival ever submitted. Callers hold p.mu.
func (p *Pipeline) compactQueueLocked() {
	if p.nextArrival < 1024 || p.nextArrival <= len(p.queue)/2 {
		return
	}
	p.queue = append([]Arrival(nil), p.queue[p.nextArrival:]...)
	p.nextArrival = 0
}
