package engine

import (
	"fmt"
	"sort"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// RunResult reports a batch run: the recorded epochs, the pipeline's packet
// totals (conserved: Submitted = Delivered + Dropped + SurvivedRedundant +
// whatever is still backlogged or queued when the run ends) and the
// completions.
type RunResult struct {
	Epochs []FaultEpochStat
	Totals
	// Completion maps each arrival's flow ID to the 1-based epoch in
	// which its last packet was delivered (absent for flows that lost
	// packets to unreachability or never drained).
	Completion map[int]int
}

// MeanCompletionEpochs returns the average number of epochs between a
// flow's arrival epoch and its completion, over completed flows (0 when
// none completed).
func (r *RunResult) MeanCompletionEpochs(arrivals []Arrival, window int) float64 {
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
func (r *RunResult) DeliveredFraction() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Submitted)
}

// UniqueDeliveredFraction returns UniqueDelivered / UniqueSubmitted (0 for
// an empty run).
func (r *RunResult) UniqueDeliveredFraction() float64 {
	if r.UniqueSubmitted == 0 {
		return 0
	}
	return float64(r.UniqueDelivered) / float64(r.UniqueSubmitted)
}

// Degradation returns the shortfall of this run relative to ref — the
// failure-free run of the same arrivals — as a fraction of the reference's
// delivery: 0 means no loss, 1 means nothing was delivered. Returns 0 when
// the reference delivered nothing.
func (r *RunResult) Degradation(ref *RunResult) float64 {
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
// slots — the paper's online setting (§4, §9): plan the epoch on the state
// as it stands, commit, carry the undelivered packets forward from their
// current positions, until the pipeline drains or maxEpochs epochs have
// run. Older traffic keeps lower flow IDs, so the weight-then-flow-ID
// priority ages the backlog forward. maxEpochs 0 selects a safety cap
// relative to the offered load: one packet-hop per epoch is a gross
// underestimate of progress, so the load can always drain within it.
//
// With cfg.Repair the fabric degrades and recovers according to cfg.Trace,
// and every boundary repairs the backlog against the surviving fabric
// before planning (see Config). The run is deterministic given (arrivals,
// cfg). A caller that wants the failure-free reference runs Run a second
// time with a plain Config (no Repair, Obs or Flight) and compares; see
// RunResult.Degradation. Run fails on what New and Submit reject: a
// window without room for Δ, a trace that does not fit the fabric,
// negative arrival slots and duplicate flow IDs.
//
// Every epoch that was planned is recorded. The drained boundary that ends
// the run is recorded only when repair rerouted, dropped or discarded
// packets there.
func Run(g *graph.Digraph, arrivals []Arrival, cfg Config, maxEpochs int) (*RunResult, error) {
	p, err := New(g, cfg)
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
	res := &RunResult{Completion: make(map[int]int)}
	for epoch := 0; epoch < maxEpochs; epoch++ {
		plan, err := p.PlanNext()
		if err != nil {
			return nil, err
		}
		stat, err := p.Commit(plan)
		if err != nil {
			return nil, err
		}
		if plan.Kind == PlanDrained {
			if stat.Rerouted > 0 || stat.Dropped > 0 || stat.SurvivedRedundant > 0 {
				res.Epochs = append(res.Epochs, *stat)
			}
			break
		}
		res.Epochs = append(res.Epochs, *stat)
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
func Showdown(g *graph.Digraph, load, expanded *traffic.Load, red *traffic.Redundancy, cfg Config, maxEpochs int) ([4]*RunResult, error) {
	var res [4]*RunResult
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
