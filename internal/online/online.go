// Package online schedules dynamically arriving flows — the online
// generalization the paper's conclusion (§9) names as future work. Time is
// divided into scheduling epochs of one window each; at every epoch
// boundary the controller merges newly arrived flows with the backlog
// carried over from previous epochs (packets continue from their current
// positions in the network) and runs the Octopus scheduler on the combined
// load. Older traffic keeps lower flow IDs, so the paper's
// weight-then-flow-ID priority scheme naturally ages the backlog forward.
//
// The epoch state machine itself lives in internal/engine; the Run
// functions here are thin batch drivers over engine.Pipeline, pinned
// bit-identical to the pre-extraction monolithic loops by the golden
// fingerprints in testdata/engine_golden.json.
package online

import (
	"sort"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/graph"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
)

// Arrival is one flow plus the slot at which the controller learns of it.
type Arrival = engine.Arrival

// Options configures an online run. Core.Window is the epoch length.
// Core.Obs, when set, additionally receives the online layer's per-epoch
// metrics and "online.epoch" trace events (the per-epoch planner runs
// already inherit it through Core).
type Options struct {
	Core core.Options
	// MaxEpochs caps the run (0 = run until every admitted flow is
	// delivered, with a safety cap relative to the offered load).
	MaxEpochs int
	// KeepPlans retains each epoch's scheduled load and plan result on its
	// EpochStat, so callers (and the verification tests) can audit every
	// per-epoch schedule independently. Costs memory proportional to the
	// run; off by default.
	KeepPlans bool
	// Flight receives per-flow lifecycle events keyed by arrival flow IDs
	// (see engine.Config.Flight). nil disables recording; results are
	// bit-identical either way.
	Flight *flight.Recorder
}

// EpochStat summarizes one scheduling epoch.
type EpochStat = engine.EpochStat

// Result reports an online run.
type Result struct {
	Epochs    []EpochStat
	Delivered int
	Total     int
	// Completion maps each arrival's flow ID to the 1-based epoch in
	// which its last packet was delivered (absent if never completed).
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

// start returns a pipeline over g holding the arrivals, stable-sorted by
// At — the admission order the engine expects. The engine rejects a
// non-positive window, a trace that does not fit the fabric, negative
// arrival slots and duplicate flow IDs.
func start(g *graph.Digraph, arrivals []Arrival, cfg engine.Config) (*engine.Pipeline, error) {
	p, err := engine.New(g, cfg)
	if err != nil {
		return nil, err
	}
	queue := append([]Arrival(nil), arrivals...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].At < queue[j].At })
	if err := p.SubmitAll(queue); err != nil {
		return nil, err
	}
	return p, nil
}

// drain is the one epoch loop behind Run, RunFaulty and
// RunRedundantFaulty: plan, stamp the reference run's delivery (-1 without
// one), commit, until the pipeline drains or the epoch budget runs out.
// maxEpochs 0 selects a safety cap relative to the offered load: one
// packet-hop per epoch is a gross underestimate of progress, so the load
// can always drain within it. It returns the recorded epochs and the
// 1-based completion epoch of every flow that finished; the packet totals
// are the pipeline's own (Pipeline.Totals).
func drain(p *engine.Pipeline, arrivals []Arrival, maxEpochs int, ref *Result) ([]FaultEpochStat, map[int]int, error) {
	if maxEpochs == 0 {
		maxEpochs = 16
		for _, a := range arrivals {
			maxEpochs += a.Flow.Size * traffic.MaxRouteLen
		}
	}
	var epochs []FaultEpochStat
	completion := make(map[int]int)
	for epoch := 0; epoch < maxEpochs; epoch++ {
		plan, err := p.PlanNext()
		if err != nil {
			return nil, nil, err
		}
		plan.Stat.RefDelivered = refDelivered(ref, epoch)
		stat, err := p.Commit(plan)
		if err != nil {
			return nil, nil, err
		}
		// A boundary that found nothing backlogged or queued ends the run;
		// it is an epoch only if fault repair still did visible work there.
		if plan.Record {
			epochs = append(epochs, *stat)
		}
		if plan.Kind == engine.PlanDrained {
			break
		}
		for _, id := range stat.Completed {
			completion[id] = stat.Epoch + 1
		}
	}
	return epochs, completion, nil
}

// Run schedules the arrivals over successive epochs.
func Run(g *graph.Digraph, arrivals []Arrival, opt Options) (*Result, error) {
	p, err := start(g, arrivals, engine.Config{Core: opt.Core, KeepPlans: opt.KeepPlans, Flight: opt.Flight})
	if err != nil {
		return nil, err
	}
	epochs, completion, err := drain(p, arrivals, opt.MaxEpochs, nil)
	if err != nil {
		return nil, err
	}
	t := p.Totals()
	res := &Result{Delivered: t.Delivered, Total: t.Submitted, Completion: completion}
	for i := range epochs {
		res.Epochs = append(res.Epochs, epochs[i].EpochStat)
	}
	return res, nil
}
