package algo

import (
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// Defaults for the proactive-multipath knobs a core planner reads under
// fault injection: provision up to 2 disjoint route copies per critical
// flow, alternates at most 2× the primary hop count. CritFrac has no
// default — redundancy is explicit opt-in (crit=0 provisions nothing).
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
// per-copy single-route flows plus the Redundancy group map the online
// fault loop (internal/engine) deduplicates with. CritFrac <= 0 provisions
// nothing. The input load is never modified.
func ProvisionRedundant(g *graph.Digraph, load *traffic.Load, p Params) (*traffic.Load, *traffic.Redundancy) {
	k, crit, stretch := RedundancyKnobs(p)
	return traffic.Provision(g, load, k, crit, stretch)
}
