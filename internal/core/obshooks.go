package core

import (
	"octopus/internal/matching"
	"octopus/internal/obs"
)

// coreInstruments is one Scheduler's instruments, bound once; with
// observability off every field is nil and a hook costs one nil check. The
// hooks only read scheduler state: enabling them changes no decision.
type coreInstruments struct {
	iterations *obs.Counter   // greedy iterations planned
	alpha      *obs.Histogram // chosen α per iteration
	weight     *obs.Histogram // matching weight (benefit) per iteration
	candidates *obs.Histogram // α-candidate-set size per iteration
	rebuilds   *obs.Counter   // active links whose weight classes changed since the last iteration
	step       *obs.Histogram // wall time choosing each configuration (bestConfiguration), ns
	apply      *obs.Histogram // wall time applying it to T^r, ns

	match       [len(matchCounters)]*obs.Counter // matching.Stats, summed over the arenas
	prunedAlpha *obs.Counter                     // phase-1 α's skipped by the per-port bound
	prunedExact *obs.Counter                     // phase-2 exact solves skipped by incumbent pruning

	tracer *obs.Tracer
}

// matchCounters names the octopus_match_<name>_total counters, one per
// matching.Stats field, in matchValues' order.
var matchCounters = [...]string{"greedy_calls", "greedy_kept", "greedy_edges", "greedy_matched", "greedy_proposals",
	"exact_calls", "exact_rows", "augment_rounds", "full_scans", "arena_grows", "arena_reuses"}

// matchValues lists st's fields in matchCounters' order.
func matchValues(st matching.Stats) [len(matchCounters)]int64 {
	return [...]int64{st.GreedyCalls, st.GreedyKept, st.GreedyEdges, st.GreedyMatched, st.GreedyProposals,
		st.ExactCalls, st.ExactRows, st.AugmentRounds, st.FullScans, st.Grows, st.Reuses}
}

func bindCoreInstruments(o *obs.Observer) coreInstruments {
	ins := coreInstruments{
		iterations: o.Counter("octopus_core_iterations_total"),
		alpha:      o.Histogram("octopus_core_alpha"),
		weight:     o.Histogram("octopus_core_matching_weight"),
		candidates: o.Histogram("octopus_core_alpha_candidates"),
		rebuilds:   o.Counter("octopus_core_summary_rebuilds_total"),
		step:       o.Histogram("octopus_core_step_ns"),
		apply:      o.Histogram("octopus_core_apply_ns"),

		prunedAlpha: o.Counter("octopus_match_alpha_pruned_total"),
		prunedExact: o.Counter("octopus_match_exact_pruned_total"),
		tracer:      o.Tracer(),
	}
	for i, name := range matchCounters {
		ins.match[i] = o.Counter("octopus_match_" + name + "_total")
	}
	return ins
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
		obs.I("evaluated", int64(s.lastEvaluated)),
		obs.I("pruned", int64(s.lastPruned)),
		obs.I("rebuilds", int64(s.lastChanged)),
	)
}

// observeDone fires once, when the greedy loop terminates (Step guards it):
// it adds the arenas' stats to the match counters and emits "core.done".
func (s *Scheduler) observeDone() {
	if !s.opt.Obs.Enabled() {
		return
	}
	var sum matching.Stats
	for _, sc := range s.scratch {
		sc.arena.Stats.AddTo(&sum)
	}
	ins := &s.ins
	for i, v := range matchValues(sum) {
		ins.match[i].Add(v)
	}
	ins.prunedAlpha.Add(s.prunedAlpha)
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
