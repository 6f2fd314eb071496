package online

import (
	"fmt"

	"octopus/internal/engine"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// FaultOptions configures a fault-tolerant online run.
type FaultOptions struct {
	Options

	// SkipReference skips the failure-free reference run, leaving
	// FaultResult.Reference nil and every RefDelivered at -1. The reference
	// costs a second full online run; skip it when only the degraded
	// numbers matter.
	SkipReference bool
}

// FaultEpochStat extends EpochStat with the epoch's degradation accounting.
type FaultEpochStat = engine.FaultEpochStat

// FaultResult reports a fault-tolerant online run. Packets are conserved:
// Total = Delivered + Dropped + SurvivedRedundant + whatever is still
// backlogged when the run ends.
type FaultResult struct {
	Epochs    []FaultEpochStat
	Delivered int
	Dropped   int // packets abandoned as unreachable across the whole run
	Total     int
	Psi       int64 // Σ per-epoch plan ψ, duplicates included, in traffic.WeightScale units

	// UniqueDelivered / UniqueTotal are the redundancy-deduplicated run
	// metrics: each copy group counts once (by its best copy) toward
	// UniqueDelivered, and duplicate copies do not add to UniqueTotal.
	// Without redundancy they mirror Delivered / Total.
	UniqueDelivered int
	UniqueTotal     int

	// SurvivedRedundant totals the packets of dead copies discarded because
	// a sibling copy with a live route carried their group through the
	// failure (see FaultEpochStat.SurvivedRedundant).
	SurvivedRedundant int
	// Completion maps arrival flow IDs to the 1-based epoch in which the
	// flow's last packet was delivered (absent for flows that lost packets
	// to unreachability or never drained).
	Completion map[int]int
	// Reference is the failure-free run of the same arrivals under the
	// same options (nil when FaultOptions.SkipReference).
	Reference *Result
}

// DeliveredFraction returns Delivered / Total (0 for an empty run).
func (r *FaultResult) DeliveredFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Total)
}

// UniqueDeliveredFraction returns UniqueDelivered / UniqueTotal (0 for an
// empty run).
func (r *FaultResult) UniqueDeliveredFraction() float64 {
	if r.UniqueTotal == 0 {
		return 0
	}
	return float64(r.UniqueDelivered) / float64(r.UniqueTotal)
}

// Degradation returns the shortfall of the degraded run relative to the
// failure-free reference, as a fraction of the reference's delivery: 0 means
// no loss, 1 means nothing was delivered. Returns 0 when the reference was
// skipped or delivered nothing.
func (r *FaultResult) Degradation() float64 {
	if r.Reference == nil || r.Reference.Delivered == 0 {
		return 0
	}
	d := float64(r.Reference.Delivered-r.Delivered) / float64(r.Reference.Delivered)
	if d < 0 {
		return 0
	}
	return d
}

// RunFaulty schedules the arrivals over successive epochs while the fabric
// degrades and recovers according to trace. At every epoch boundary the
// controller:
//
//  1. snapshots the surviving fabric (links and nodes up at the boundary
//     slot, per the trace);
//  2. admits newly arrived flows and merges them with the backlog carried
//     from previous epochs — in-flight packets continue from their current
//     positions in the network;
//  3. repairs traffic broken by failures: a flow all of whose candidate
//     routes died is rerouted onto a BFS shortest surviving path from its
//     current position, and flows with no surviving path (source or
//     destination unreachable) are dropped — the only packets ever given
//     up on;
//  4. plans the epoch with the Octopus scheduler on the surviving fabric,
//     with the trace's delta jitter for the epoch added to Δ; and
//  5. audits the plan with verify.Schedule against the surviving fabric —
//     a configuration that would activate a failed link fails the run.
//
// The run is deterministic given (arrivals, trace, options). Unless
// FaultOptions.SkipReference is set, a failure-free reference run of the
// same arrivals is computed so every epoch's delivery can be compared
// against the fabric-intact baseline.
func RunFaulty(g *graph.Digraph, arrivals []Arrival, trace *fault.Trace, opt FaultOptions) (*FaultResult, error) {
	return runFaulty(g, arrivals, trace, opt, nil, true)
}

// runFaulty is the shared fault-tolerant driver behind RunFaulty (red nil,
// reactive true) and RunRedundantFaulty. With a non-empty redundancy map,
// dead copies whose group keeps a live copy are discarded instead of
// repaired, and the Unique* metrics deduplicate delivery per group; with
// reactive false, epoch-boundary BFS repair is disabled and route-less
// flows are dropped outright. The epoch state machine and every packet
// total are engine.Pipeline's; this driver configures it for repair, runs
// the failure-free reference and hands both to drain.
func runFaulty(g *graph.Digraph, arrivals []Arrival, trace *fault.Trace, opt FaultOptions, red *traffic.Redundancy, reactive bool) (*FaultResult, error) {
	p, err := start(g, arrivals, engine.Config{
		Core:      opt.Core,
		KeepPlans: opt.KeepPlans,
		Trace:     trace,
		Repair:    true,
		Reactive:  reactive,
		Red:       red,
		Audit:     true,
		Flight:    opt.Flight,
	})
	if err != nil {
		return nil, err
	}
	var ref *Result
	if !opt.SkipReference {
		// The reference run is an internal baseline, not part of the
		// observed run: detach the observer and flight recorder so their
		// metrics and journals reflect only the degraded schedule.
		refOpt := opt.Options
		refOpt.Core.Obs = nil
		refOpt.Flight = nil
		ref, err = Run(g, arrivals, refOpt)
		if err != nil {
			return nil, fmt.Errorf("online: failure-free reference run: %w", err)
		}
	}
	epochs, completion, err := drain(p, arrivals, opt.MaxEpochs, ref)
	if err != nil {
		return nil, err
	}
	t := p.Totals()
	return &FaultResult{
		Epochs:            epochs,
		Delivered:         t.Delivered,
		Dropped:           t.Dropped,
		Total:             t.Submitted,
		Psi:               t.Psi,
		UniqueDelivered:   t.UniqueDelivered,
		UniqueTotal:       t.UniqueSubmitted,
		SurvivedRedundant: t.SurvivedRedundant,
		Completion:        completion,
		Reference:         ref,
	}, nil
}

func refDelivered(ref *Result, epoch int) int {
	if ref == nil {
		return -1
	}
	if epoch < len(ref.Epochs) {
		return ref.Epochs[epoch].Delivered
	}
	return 0
}
