package core

import (
	"octopus/internal/matching"
	"octopus/internal/obs"
)

// coreInstruments is the pre-bound instrument set of one Scheduler. Binding
// happens once in init; with observability off every field is nil and each
// hook costs one nil check. The hooks are strictly read-only with respect
// to scheduler state: enabling them must not change a single decision
// (asserted by the obs on/off equivalence tests).
type coreInstruments struct {
	iterations *obs.Counter   // greedy iterations planned
	alpha      *obs.Histogram // chosen α per iteration
	weight     *obs.Histogram // matching weight (benefit) per iteration
	candidates *obs.Histogram // α-candidate-set size per iteration
	rebuilds   *obs.Counter   // active links whose weight classes changed since the last iteration
	step       *obs.Histogram // wall time per Step, ns

	greedyCalls   *obs.Counter
	greedyEdges   *obs.Counter
	greedyMatched *obs.Counter
	greedyProps   *obs.Counter // deferred-acceptance proposals of the greedy calls
	exactCalls    *obs.Counter
	exactRows     *obs.Counter
	augmentRounds *obs.Counter
	fullScans     *obs.Counter // augment rounds that relaxed a whole row
	arenaGrows    *obs.Counter
	arenaReuses   *obs.Counter
	prunedExact   *obs.Counter // phase-2 exact solves skipped by incumbent pruning

	tracer *obs.Tracer
}

func bindCoreInstruments(o *obs.Observer) coreInstruments {
	return coreInstruments{
		iterations: o.Counter("octopus_core_iterations_total"),
		alpha:      o.Histogram("octopus_core_alpha"),
		weight:     o.Histogram("octopus_core_matching_weight"),
		candidates: o.Histogram("octopus_core_alpha_candidates"),
		rebuilds:   o.Counter("octopus_core_summary_rebuilds_total"),
		step:       o.Histogram("octopus_core_step_ns"),

		greedyCalls:   o.Counter("octopus_match_greedy_calls_total"),
		greedyEdges:   o.Counter("octopus_match_greedy_edges_total"),
		greedyMatched: o.Counter("octopus_match_greedy_matched_total"),
		greedyProps:   o.Counter("octopus_match_greedy_proposals_total"),
		exactCalls:    o.Counter("octopus_match_exact_calls_total"),
		exactRows:     o.Counter("octopus_match_exact_rows_total"),
		augmentRounds: o.Counter("octopus_match_augment_rounds_total"),
		fullScans:     o.Counter("octopus_match_full_scans_total"),
		arenaGrows:    o.Counter("octopus_match_arena_grows_total"),
		arenaReuses:   o.Counter("octopus_match_arena_reuses_total"),
		prunedExact:   o.Counter("octopus_match_exact_pruned_total"),

		tracer: o.Tracer(),
	}
}

// observeIter records one planned configuration: the greedy decision
// ("core.iter" trace event) plus the per-iteration metric observations.
func (s *Scheduler) observeIter(alpha int, benefit int64, nlinks int, psiGain int64, deliveredGain int) {
	ins := &s.ins
	ins.iterations.Inc()
	ins.alpha.Observe(int64(alpha))
	ins.weight.Observe(benefit)
	ins.candidates.Observe(int64(s.lastCandidates))
	ins.rebuilds.Add(int64(s.lastChanged))
	ins.tracer.Emit("core.iter",
		obs.I("iter", int64(s.iters)),
		obs.I("alpha", int64(alpha)),
		obs.I("benefit", benefit),
		obs.I("links", int64(nlinks)),
		obs.I("psi_gain", psiGain),
		obs.I("delivered", int64(deliveredGain)),
		obs.I("pending", int64(s.tr.pending)),
		obs.I("candidates", int64(s.lastCandidates)),
		obs.I("rebuilds", int64(s.lastChanged)),
	)
}

// observeDone fires once when the greedy loop terminates: it folds the
// per-worker arena stats into the match counters and emits the "core.done"
// summary event. Step guards the done transition, so this runs exactly once
// per Scheduler.
func (s *Scheduler) observeDone() {
	if !s.opt.Obs.Enabled() {
		return
	}
	var sum matching.Stats
	for _, sc := range s.scratch {
		sc.arena.Stats.AddTo(&sum)
	}
	ins := &s.ins
	ins.greedyCalls.Add(sum.GreedyCalls)
	ins.greedyEdges.Add(sum.GreedyEdges)
	ins.greedyMatched.Add(sum.GreedyMatched)
	ins.greedyProps.Add(sum.GreedyProposals)
	ins.exactCalls.Add(sum.ExactCalls)
	ins.exactRows.Add(sum.ExactRows)
	ins.augmentRounds.Add(sum.AugmentRounds)
	ins.fullScans.Add(sum.FullScans)
	ins.arenaGrows.Add(sum.Grows)
	ins.arenaReuses.Add(sum.Reuses)
	ins.prunedExact.Add(s.prunedExact)
	ins.tracer.Emit("core.done",
		obs.I("iters", int64(s.iters)),
		obs.I("psi", s.tr.psi),
		obs.I("hops", int64(s.tr.hops)),
		obs.I("delivered", int64(s.tr.delivered)),
		obs.I("pending", int64(s.tr.pending)),
		obs.I("used", int64(s.used)),
	)
}
