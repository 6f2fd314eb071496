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
	"errors"
	"fmt"
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

// validateArrivals checks the batch drivers' shared preconditions and
// returns the total and redundancy-deduplicated packet counts.
func validateArrivals(arrivals []Arrival, red *traffic.Redundancy) (total, uniqueTotal int, err error) {
	seen := make(map[int]bool, len(arrivals))
	for _, a := range arrivals {
		if a.At < 0 {
			return 0, 0, fmt.Errorf("online: flow %d has negative arrival %d", a.Flow.ID, a.At)
		}
		if seen[a.Flow.ID] {
			return 0, 0, fmt.Errorf("online: duplicate arrival flow ID %d", a.Flow.ID)
		}
		seen[a.Flow.ID] = true
		total += a.Flow.Size
		if !red.Duplicate(a.Flow.ID) {
			uniqueTotal += a.Flow.Size
		}
	}
	return total, uniqueTotal, nil
}

// sortedQueue returns the arrivals stable-sorted by At, the admission
// order the engine expects.
func sortedQueue(arrivals []Arrival) []Arrival {
	queue := append([]Arrival(nil), arrivals...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].At < queue[j].At })
	return queue
}

// epochCap returns the run's epoch budget: the configured cap, or a safety
// cap relative to the offered load (one packet-hop per epoch is a gross
// underestimate of progress, so the load can always drain within it).
func epochCap(maxEpochs int, queue []Arrival) int {
	if maxEpochs != 0 {
		return maxEpochs
	}
	maxEpochs = 16
	for _, a := range queue {
		maxEpochs += a.Flow.Size * traffic.MaxRouteLen
	}
	return maxEpochs
}

// recordCompletions enters the flows that completed in the epoch into the
// run's completion map, at the 1-based epoch of their last delivery.
func recordCompletions(completion map[int]int, stat *EpochStat) {
	for _, id := range stat.Completed {
		completion[id] = stat.Epoch + 1
	}
}

// Run schedules the arrivals over successive epochs.
func Run(g *graph.Digraph, arrivals []Arrival, opt Options) (*Result, error) {
	if opt.Core.Window <= 0 {
		return nil, errors.New("online: Core.Window must be positive")
	}
	total, _, err := validateArrivals(arrivals, nil)
	if err != nil {
		return nil, err
	}
	queue := sortedQueue(arrivals)

	p, err := engine.New(g, engine.Config{Core: opt.Core, KeepPlans: opt.KeepPlans, Flight: opt.Flight})
	if err != nil {
		return nil, err
	}
	if err := p.SubmitAll(queue); err != nil {
		return nil, err
	}

	res := &Result{Total: total, Completion: make(map[int]int)}
	maxEpochs := epochCap(opt.MaxEpochs, queue)
	for epoch := 0; epoch < maxEpochs; epoch++ {
		plan, err := p.PlanNext()
		if err != nil {
			return nil, err
		}
		stat, err := p.Commit(plan)
		if err != nil {
			return nil, err
		}
		if plan.Kind == engine.PlanDrained {
			break
		}
		res.Delivered += stat.Delivered
		res.Epochs = append(res.Epochs, stat.EpochStat)
		recordCompletions(res.Completion, &stat.EpochStat)
	}
	return res, nil
}
