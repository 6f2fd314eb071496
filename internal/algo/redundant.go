package algo

import (
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// Defaults for the octopus-redundant proactive-multipath knobs: provision
// up to 2 disjoint route copies per critical flow, alternates at most 2×
// the primary hop count. CritFrac has no default — redundancy is explicit
// opt-in (crit=0 makes the mode bit-identical to plain octopus).
const (
	DefaultRedundancy = 2
	DefaultStretch    = 2.0
)

// RedundancyKnobs resolves the Params redundancy fields to effective
// values.
func RedundancyKnobs(p Params) (k int, crit, stretch float64) {
	k = p.Redundancy
	if k <= 0 {
		k = DefaultRedundancy
	}
	crit = p.CritFrac
	stretch = p.Stretch
	if stretch <= 0 {
		stretch = DefaultStretch
	}
	return k, crit, stretch
}

// ProvisionRedundant is traffic.Provision under p's knobs: the top
// CritFrac fraction of flows (largest first) get up to Redundancy pairwise
// edge-disjoint route copies within the Stretch cap, expanded into
// per-copy single-route flows plus the Redundancy group map the simulator
// and the online fault loop deduplicate with. CritFrac <= 0 provisions
// nothing. The input load is never modified.
func ProvisionRedundant(g *graph.Digraph, load *traffic.Load, p Params) (*traffic.Load, *traffic.Redundancy) {
	k, crit, stretch := RedundancyKnobs(p)
	return traffic.Provision(g, load, k, crit, stretch)
}

// octopusRedundantAlgo is octopus-redundant: plain Octopus planning over
// the redundancy-expanded load, measured with per-group deduplicated
// delivery. The raw (per-copy) plan is claimed exactly; Delivered counts
// each group once at its first copy's arrival, Total is the original
// offered load, ψ includes the duplicate overhead (broken out in the
// simulate.Result the differential harness replays). With crit=0 the
// expansion is the identity and the run is bit-identical to plain octopus.
func octopusRedundantAlgo() Algorithm {
	return &coreAlgo{
		name: "octopus-redundant",
		describe: "Octopus over proactively replicated critical flows: crit-fraction largest flows get " +
			"up to red edge-disjoint route copies (stretch-capped), delivery deduplicated per copy group",
		prep:      passthrough(baseOptions),
		provision: ProvisionRedundant,
	}
}
