package experiment

import (
	"fmt"

	"octopus/internal/algo"
	"octopus/internal/baseline"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// metrics are the per-run measurements the figures plot. Fractions are in
// [0, 1]; the figure runners convert to percentages.
type metrics struct {
	delivered      float64 // packets delivered / offered
	utilization    float64 // packet-hops / active link-slots
	deliveredOfPsi float64 // delivered / (ψ in packet equivalents), Fig 7a
}

// params maps the scale's shared knobs onto the registry parameter set;
// figure runners overlay their sweep variable before dispatching.
func (sc Scale) params() algo.Params {
	return algo.Params{Window: sc.Window, Delta: sc.Delta, Matcher: sc.Matcher}
}

// run dispatches one registered algorithm by name and reduces its Outcome
// to the figure metrics. Every figure and extension runner goes through
// here, so the experiment layer carries no per-algorithm options mapping
// or roster of its own — internal/algo is the single source of truth.
func run(name string, g *graph.Digraph, load *traffic.Load, p algo.Params) (metrics, error) {
	a, ok := algo.Lookup(name)
	if !ok {
		return metrics{}, fmt.Errorf("experiment: unknown algorithm %q", name)
	}
	out, err := a.Run(g, load, p)
	if err != nil {
		return metrics{}, err
	}
	return metrics{
		delivered:      out.DeliveredFraction(),
		utilization:    out.Utilization(),
		deliveredOfPsi: out.DeliveredOfPsi(),
	}, nil
}

// absUB returns the absolute capacity upper bound as a delivered fraction.
func absUB(load *traffic.Load, window, n int) float64 {
	total := load.TotalPackets()
	if total == 0 {
		return 0
	}
	return float64(baseline.AbsoluteUpperBound(load, window, n)) / float64(total)
}
