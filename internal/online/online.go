// Package online schedules dynamically arriving flows — the online
// generalization the paper's conclusion (§9) names as future work. Time is
// divided into scheduling epochs of one window each; at every epoch
// boundary the controller merges newly arrived flows with the backlog
// carried over from previous epochs (packets continue from their current
// positions in the network) and runs the Octopus scheduler on the combined
// load. Older traffic keeps lower flow IDs, so the paper's
// weight-then-flow-ID priority scheme naturally ages the backlog forward.
//
// The epoch state machine itself lives in internal/engine; Run is the one
// batch driver over engine.Pipeline, pinned bit-identical to the
// pre-extraction monolithic loops by the golden fingerprints in
// testdata/engine_golden.json.
package online

import (
	"fmt"
	"sort"

	"octopus/internal/engine"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// Arrival is one flow plus the slot at which the controller learns of it.
type Arrival = engine.Arrival

// Result reports a batch run: the recorded epochs, the pipeline's packet
// totals (conserved: Submitted = Delivered + Dropped + SurvivedRedundant +
// whatever is still backlogged or queued when the run ends) and the
// completions.
type Result struct {
	Epochs []engine.FaultEpochStat
	engine.Totals
	// Completion maps each arrival's flow ID to the 1-based epoch in
	// which its last packet was delivered (absent for flows that lost
	// packets to unreachability or never drained).
	Completion map[int]int
}

// MeanCompletionEpochs returns the average number of epochs between a
// flow's arrival epoch and its completion, over completed flows (0 when
// none completed).
func (r *Result) MeanCompletionEpochs(arrivals []Arrival, window int) float64 {
	if len(r.Completion) == 0 {
		return 0
	}
	total := 0.0
	count := 0
	for _, a := range arrivals {
		done, ok := r.Completion[a.Flow.ID]
		if !ok {
			continue
		}
		arriveEpoch := a.At/window + 1 // admitted at the next boundary
		total += float64(done - arriveEpoch + 1)
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// DeliveredFraction returns Delivered / Submitted (0 for an empty run).
func (r *Result) DeliveredFraction() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Submitted)
}

// UniqueDeliveredFraction returns UniqueDelivered / UniqueSubmitted (0 for
// an empty run).
func (r *Result) UniqueDeliveredFraction() float64 {
	if r.UniqueSubmitted == 0 {
		return 0
	}
	return float64(r.UniqueDelivered) / float64(r.UniqueSubmitted)
}

// Degradation returns the shortfall of this run relative to ref — the
// failure-free run of the same arrivals — as a fraction of the reference's
// delivery: 0 means no loss, 1 means nothing was delivered. Returns 0 when
// the reference delivered nothing.
func (r *Result) Degradation(ref *Result) float64 {
	if ref.Delivered == 0 {
		return 0
	}
	d := float64(ref.Delivered-r.Delivered) / float64(ref.Delivered)
	if d < 0 {
		return 0
	}
	return d
}

// Run schedules the arrivals over successive epochs of cfg.Core.Window
// slots: plan the epoch on the state as it stands, commit, carry the rest
// forward, until the pipeline drains or maxEpochs epochs have run.
// maxEpochs 0 selects a safety cap relative to the offered load: one
// packet-hop per epoch is a gross underestimate of progress, so the load
// can always drain within it.
//
// cfg is the engine's own configuration and selects everything else. With
// Repair set the fabric degrades and recovers according to cfg.Trace, and
// at every epoch boundary the controller:
//
//  1. snapshots the surviving fabric (links and nodes up at the boundary
//     slot, per the trace);
//  2. admits newly arrived flows and merges them with the backlog carried
//     from previous epochs — in-flight packets continue from their current
//     positions in the network;
//  3. repairs traffic broken by failures: with Reactive, a flow all of
//     whose candidate routes died is rerouted onto a BFS shortest surviving
//     path from its current position, and flows with no surviving path
//     (source or destination unreachable) are dropped — the only packets
//     ever given up on; a dead copy of a cfg.Red group whose sibling still
//     has a live route is discarded instead (SurvivedRedundant), and
//     delivery is deduplicated per group into the Unique* totals;
//  4. plans the epoch with the Octopus scheduler on the surviving fabric,
//     with the trace's delta jitter for the epoch added to Δ; and
//  5. with Audit, verifies the plan against the surviving fabric — a
//     configuration that would activate a failed link fails the run.
//
// The run is deterministic given (arrivals, cfg). A caller that wants the
// failure-free reference runs Run a second time with a plain Config (no
// Repair, Obs or Flight) and compares; see Result.Degradation. The engine
// rejects a non-positive window, a trace that does not fit the fabric,
// negative arrival slots and duplicate flow IDs.
func Run(g *graph.Digraph, arrivals []Arrival, cfg engine.Config, maxEpochs int) (*Result, error) {
	p, err := engine.New(g, cfg)
	if err != nil {
		return nil, err
	}
	// The engine admits in submission order, so submit sorted by At.
	queue := append([]Arrival(nil), arrivals...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].At < queue[j].At })
	if err := p.SubmitAll(queue); err != nil {
		return nil, err
	}
	if maxEpochs == 0 {
		maxEpochs = 16
		for _, a := range arrivals {
			maxEpochs += a.Flow.Size * traffic.MaxRouteLen
		}
	}
	res := &Result{Completion: make(map[int]int)}
	for epoch := 0; epoch < maxEpochs; epoch++ {
		plan, err := p.PlanNext()
		if err != nil {
			return nil, err
		}
		stat, err := p.Commit(plan)
		if err != nil {
			return nil, err
		}
		// A boundary that found nothing backlogged or queued ends the run;
		// it is an epoch only if fault repair still did visible work there.
		if plan.Record {
			res.Epochs = append(res.Epochs, *stat)
		}
		if plan.Kind == engine.PlanDrained {
			break
		}
		for _, id := range stat.Completed {
			res.Completion[id] = stat.Epoch + 1
		}
	}
	res.Totals = p.Totals()
	return res, nil
}

// Showdown replays a burst offered at slot 0 under the failure trace
// cfg.Trace once per protection arm — no protection, reactive repair only,
// proactive copies only, and both — and returns the four results in that
// order. The unprotected arms run load; the proactive arms run expanded,
// the caller's redundancy-provisioned copy of it, whose copy groups red
// ties together. Every arm repairs at epoch boundaries and audits its
// plans; Showdown sets Repair, Audit, Reactive and Red and keeps the rest
// of cfg.
func Showdown(g *graph.Digraph, load, expanded *traffic.Load, red *traffic.Redundancy, cfg engine.Config, maxEpochs int) ([4]*Result, error) {
	var res [4]*Result
	cfg.Repair, cfg.Audit = true, true
	for i, arm := range [4]struct {
		name     string
		load     *traffic.Load
		red      *traffic.Redundancy
		reactive bool
	}{
		{"none", load, nil, false},
		{"reactive", load, nil, true},
		{"proactive", expanded, red, false},
		{"both", expanded, red, true},
	} {
		arrivals := make([]Arrival, len(arm.load.Flows))
		for j, f := range arm.load.Flows {
			arrivals[j] = Arrival{Flow: f}
		}
		cfg.Red, cfg.Reactive = arm.red, arm.reactive
		r, err := Run(g, arrivals, cfg, maxEpochs)
		if err != nil {
			return res, fmt.Errorf("%s arm: %w", arm.name, err)
		}
		res[i] = r
	}
	return res, nil
}
