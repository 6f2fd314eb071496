package experiment

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"octopus/internal/algo"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
)

// figure describes one experiment as data: a sweep, how each sweep value
// overlays the scale's default instance, and the series measured on it.
// Every figure runs through figure.run; internal/algo stays the single
// source of truth for algorithms and their options, reached through spec
// strings.
type figure struct {
	id, title, xlabel, ylabel string

	xs     func(Scale) []int            // the sweep
	at     func(sc Scale, in *instance) // overlays in.x on the instance; nil = the scale's defaults
	series []series

	// point, when set, replaces the build-run-pick loop for experiments
	// that are not "algorithm → metric"; series then only carries labels.
	point func(sc Scale, in instance, rng *rand.Rand) ([]float64, error)
}

// series is one column of a figure: an algo.ParseSpec string, in which
// "%d" stands for the sweep value, and the metric read off its Outcome.
// bound, set instead, computes the column from the instance alone.
type series struct {
	label string
	spec  string
	pick  func(*algo.Outcome) float64
	bound func(in instance, load *traffic.Load) float64
}

// instance is the MHS instance of one sweep point: the scenario the
// figure's overlay sets up, run at Δ and ports.
type instance struct {
	traffic.Scenario
	x     int // the sweep value
	delta int
	ports int // ports per node (§7); 0 = single-port
}

func (in instance) build(rng *rand.Rand) (*graph.Digraph, *traffic.Load, error) {
	g, err := in.Fabric(rng)
	if err != nil {
		return nil, nil, err
	}
	load, err := in.Load(g, rng)
	return g, load, err
}

// specAt returns the series' spec at sweep value x.
func (s series) specAt(x int) string {
	return strings.ReplaceAll(s.spec, "%d", strconv.Itoa(x))
}

// run is the one sweep loop: per sweep value, overlay the instance and
// average the point over sc.Instances seeded draws.
func (f *figure) run(sc Scale) (*Table, error) {
	t := &Table{ID: f.id, Title: f.title, XLabel: f.xlabel, YLabel: f.ylabel}
	for _, s := range f.series {
		t.Series = append(t.Series, s.label)
	}
	for i, x := range f.xs(sc) {
		in := instance{Scenario: traffic.Scenario{N: sc.Nodes, Window: sc.Window}, x: x, delta: sc.Delta}
		if f.at != nil {
			f.at(sc, &in)
		}
		vals, err := averagePoint(sc, int64(i)+1, len(f.series), func(rng *rand.Rand) ([]float64, error) {
			if f.point != nil {
				return f.point(sc, in, rng)
			}
			return f.measure(sc, in, rng)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{X: float64(x), Values: vals})
	}
	return t, nil
}

// measure builds the instance and runs each series' algorithm on it, in
// series order. rng is the instance stream: the load is drawn from it
// first, then octopus-random — the only algorithm that draws — pins its
// routes from it.
func (f *figure) measure(sc Scale, in instance, rng *rand.Rand) ([]float64, error) {
	g, load, err := in.build(rng)
	if err != nil {
		return nil, err
	}
	base := algo.Params{Window: in.Window, Delta: in.delta, Ports: in.ports, Matcher: sc.Matcher, Rng: rng}
	outs := make(map[string]*algo.Outcome) // a spec two series share (Fig 8) runs once
	vals := make([]float64, len(f.series))
	for i, s := range f.series {
		if s.bound != nil {
			vals[i] = s.bound(in, load)
			continue
		}
		spec := s.specAt(in.x)
		out := outs[spec]
		if out == nil {
			a, p, err := algo.ParseSpec(spec, base)
			if err != nil {
				return nil, fmt.Errorf("experiment: figure %s: %w", f.id, err)
			}
			if out, err = a.Run(g, load, p); err != nil {
				return nil, err
			}
			outs[spec] = out
		}
		vals[i] = s.pick(out)
	}
	return vals, nil
}

// The metrics the figures plot, as percentages.
func delivered(o *algo.Outcome) float64   { return o.DeliveredFraction() * 100 }
func utilization(o *algo.Outcome) float64 { return o.Utilization() * 100 }
func ofPsi(o *algo.Outcome) float64       { return o.DeliveredOfPsi() * 100 }

// absoluteUB is the capacity bound no schedule can beat: each node sends
// and receives at most one packet per port and slot.
var absoluteUB = series{label: "AbsoluteUB", bound: func(in instance, load *traffic.Load) float64 {
	total := load.TotalPackets()
	if total == 0 {
		return 0
	}
	return float64(algo.AbsoluteUpperBound(load, in.Window*max(1, in.ports), in.N)) / float64(total) * 100
}}

// comparison is the Fig 4/5/7a roster: Octopus against the Eclipse-based
// baseline and the UB bound.
func comparison(pick func(*algo.Outcome) float64, more ...series) []series {
	return append([]series{
		{label: "Octopus", spec: "octopus", pick: pick},
		{label: "Eclipse-Based", spec: "eclipse-based", pick: pick},
		{label: "UB", spec: "ub", pick: pick},
	}, more...)
}

// labels builds the series of a figure whose values come from figure.point.
func labels(names ...string) []series {
	out := make([]series, len(names))
	for i, n := range names {
		out[i].label = n
	}
	return out
}

// Sweeps.
func nodeSweep(sc Scale) []int     { return sc.NodeSweep }
func deltaSweep(sc Scale) []int    { return sc.DeltaSweep }
func skewSweep(sc Scale) []int     { return sc.SkewSweep }
func sparsitySweep(sc Scale) []int { return sc.SparsitySweep }
func hopSweep(sc Scale) []int      { return sc.HopSweep }
func timeNodeSweep(sc Scale) []int { return sc.TimeNodeSweep }
func fixed(xs ...int) func(Scale) []int {
	return func(Scale) []int { return xs }
}

// Instance overlays.
func byNodes(_ Scale, in *instance) { in.N = in.x }
func byDelta(_ Scale, in *instance) { in.delta = in.x }

// bySkew sets c_S to x% of c_S + c_L.
func bySkew(_ Scale, in *instance) { in.Skew = in.x }

// bySparsity spreads x flows per port over large and small at 1:3.
func bySparsity(_ Scale, in *instance) { in.Flows = in.x }

// byHops forces every flow onto a route of exactly x hops.
func byHops(_ Scale, in *instance) { in.FixedHops = in.x }

// tenRoutesByDelta is the §6 multi-route setting: 10 route choices of 1-3
// hops per flow, swept over Δ.
func tenRoutesByDelta(_ Scale, in *instance) { in.delta, in.Routes = in.x, 10 }

// figures is the one table: the 16 figures of the paper's §8, then the
// extensions — ablations of design choices DESIGN.md calls out and the §7
// variants the paper describes but does not plot.
var figures = []figure{
	// Fig 4/5: packets delivered and link utilization over four sweeps
	// (nodes, reconfiguration delay, skew, sparsity).
	{id: "4a", title: "Packets delivered for varying number of nodes",
		xlabel: "nodes", ylabel: "% packets delivered",
		xs: nodeSweep, at: byNodes, series: comparison(delivered, absoluteUB)},
	{id: "4b", title: "Packets delivered for varying reconfiguration delay",
		xlabel: "delta", ylabel: "% packets delivered",
		xs: deltaSweep, at: byDelta, series: comparison(delivered, absoluteUB)},
	{id: "4c", title: "Packets delivered for varying traffic skew",
		xlabel: "cS%", ylabel: "% packets delivered",
		xs: skewSweep, at: bySkew, series: comparison(delivered, absoluteUB)},
	{id: "4d", title: "Packets delivered for varying traffic sparsity",
		xlabel: "flows/port", ylabel: "% packets delivered",
		xs: sparsitySweep, at: bySparsity, series: comparison(delivered, absoluteUB)},
	{id: "5a", title: "Link utilization for varying number of nodes",
		xlabel: "nodes", ylabel: "% link utilization",
		xs: nodeSweep, at: byNodes, series: comparison(utilization)},
	{id: "5b", title: "Link utilization for varying reconfiguration delay",
		xlabel: "delta", ylabel: "% link utilization",
		xs: deltaSweep, at: byDelta, series: comparison(utilization)},
	{id: "5c", title: "Link utilization for varying traffic skew",
		xlabel: "cS%", ylabel: "% link utilization",
		xs: skewSweep, at: bySkew, series: comparison(utilization)},
	{id: "5d", title: "Link utilization for varying traffic sparsity",
		xlabel: "flows/port", ylabel: "% link utilization",
		xs: sparsitySweep, at: bySparsity, series: comparison(utilization)},

	{id: "6", title: "Performance over datacenter trace-like loads",
		xlabel: "trace", ylabel: "% packets delivered",
		xs: fixed(1, 2, 3, 4), at: func(_ Scale, in *instance) { in.Trace = traffic.TraceNames[in.x-1] },
		series: comparison(delivered, absoluteUB)},

	{id: "7a", title: "Packets delivered as percentage of ψ vs reconfiguration delay",
		xlabel: "delta", ylabel: "packets delivered as % of ψ",
		xs: deltaSweep, at: byDelta, series: comparison(ofPsi)},
	// octopus-e defaults the later-hop bonus to eps64=4 (ε = 1/16).
	{id: "7b", title: "Octopus-e for varying average hop count",
		xlabel: "route hops", ylabel: "% packets delivered",
		xs: hopSweep, at: byHops, series: []series{
			{label: "Octopus", spec: "octopus", pick: delivered},
			{label: "Octopus-e", spec: "octopus-e", pick: delivered},
			{label: "UB", spec: "ub", pick: delivered},
		}},

	// Octopus against the traffic-agnostic RotorNet schedule.
	{id: "8", title: "Octopus vs RotorNet",
		xlabel: "delta", ylabel: "% (delivered and utilization)",
		xs: deltaSweep, at: byDelta, series: []series{
			{label: "Octopus del%", spec: "octopus", pick: delivered},
			{label: "RotorNet del%", spec: "rotornet", pick: delivered},
			{label: "Octopus util%", spec: "octopus", pick: utilization},
			{label: "RotorNet util%", spec: "rotornet", pick: utilization},
		}},

	// Octopus-B binary-searches α instead of trying every candidate.
	{id: "9a", title: "Octopus-B vs Octopus",
		xlabel: "delta", ylabel: "% packets delivered",
		xs: deltaSweep, at: byDelta, series: []series{
			{label: "Octopus", spec: "octopus", pick: delivered},
			{label: "Octopus-B", spec: "octopus-b", pick: delivered},
		}},
	// Octopus-random pins one random route per flow, then runs plain Octopus.
	{id: "9b", title: "Octopus+ vs Octopus-random (10 routes per flow)",
		xlabel: "delta", ylabel: "% packets delivered",
		xs: deltaSweep, at: tenRoutesByDelta, series: []series{
			{label: "Octopus+", spec: "octopus-plus", pick: delivered},
			{label: "Octopus-random", spec: "octopus-random", pick: delivered},
		}},

	{id: "10a", title: "Per-iteration execution time vs network size",
		xlabel: "nodes", ylabel: "microseconds per iteration",
		xs: timeNodeSweep, at: byNodes,
		series: labels("Octopus", "Octopus-G"), point: iterationTimes},
	// Exact against greedy matching at the largest timing size.
	{id: "10b", title: "Octopus vs Octopus-G at large scale",
		xlabel: "delta", ylabel: "% packets delivered",
		xs: deltaSweep,
		at: func(sc Scale, in *instance) {
			in.N, in.delta = sc.TimeNodeSweep[len(sc.TimeNodeSweep)-1], in.x
		},
		series: []series{
			{label: "Octopus", spec: "octopus:matcher=exact", pick: delivered},
			{label: "Octopus-G", spec: "octopus-g", pick: delivered},
		}},

	// Each configuration is a union of up to K edge-disjoint matchings;
	// the capacity bound scales with the port count.
	{id: "ext-ports", title: "K ports per node (§7)",
		xlabel: "ports", ylabel: "% packets delivered",
		xs: fixed(1, 2, 4), at: func(_ Scale, in *instance) { in.ports = in.x },
		series: []series{{label: "Octopus", spec: "octopus", pick: delivered}, absoluteUB}},
	// x is the load intensity: the synthetic load is sized for x% of W.
	{id: "ext-makespan", title: "Makespan minimization (§7)",
		xlabel: "load%", ylabel: "slots",
		xs: fixed(25, 50, 100), at: func(_ Scale, in *instance) { in.Window = in.Window * in.x / 100 },
		series: labels("Octopus makespan", "per-port lower bound"), point: makespan},
	// With the paper's general multi-route loads, backtracking is what
	// guarantees the approximation bound; this measures what it buys.
	{id: "ext-backtrack", title: "Octopus+ backtracking ablation (§6)",
		xlabel: "delta", ylabel: "% packets delivered (plan)",
		xs: deltaSweep, at: tenRoutesByDelta, series: []series{
			{label: "Octopus+", spec: "octopus-plus", pick: delivered},
			{label: "Octopus+ no-backtrack", spec: "octopus-plus:backtrack=false", pick: delivered},
			{label: "Octopus-random", spec: "octopus-random", pick: delivered},
		}},
	// The two realizations of the Eclipse-Based baseline: fixed-route VOQ
	// replay (the default, measured by the same simulator as everything
	// else) vs the Eclipse++ time-expanded re-routing of [36].
	{id: "ext-eclipsepp", title: "Eclipse-Based realizations: VOQ replay vs Eclipse++ re-routing",
		xlabel: "delta", ylabel: "% packets delivered",
		xs: deltaSweep, at: byDelta, series: []series{
			{label: "Octopus", spec: "octopus", pick: delivered},
			{label: "Eclipse-Based (replay)", spec: "eclipse-based", pick: delivered},
			{label: "Eclipse-Based (Eclipse++)", spec: "eclipse-pp", pick: delivered},
		}},
	{id: "ext-buffers", title: "Peak intermediate buffering vs route length",
		xlabel: "route hops", ylabel: "packets buffered (peak)",
		xs: hopSweep, at: byHops,
		series: labels("max per node", "max total", "delivered%"), point: peakBuffers},
	// ε in 1/64 units on Fig 7b's hardest setting. Plain octopus honors
	// eps64 directly, so 0 stays the no-bonus baseline (octopus-e would
	// default 0 to 4).
	{id: "ext-epsilon", title: "Octopus-e ε sensitivity (uniform 3-hop routes)",
		xlabel: "eps64", ylabel: "% packets delivered",
		xs: fixed(0, 2, 4, 8, 16, 32, 64),
		at: func(sc Scale, in *instance) { in.FixedHops = sc.HopSweep[len(sc.HopSweep)-1] },
		series: []series{
			{label: "Octopus-e", spec: "octopus:eps64=%d", pick: delivered},
			{label: "UB", spec: "ub", pick: delivered},
		}},
	{id: "ext-redundancy", title: "Proactive multipath redundancy vs reactive repair under correlated failures",
		xlabel: "k", ylabel: "% unique packets delivered (PsiOverhead: ratio)",
		xs:     fixed(1, 2, 3),
		series: labels("None", "ReactiveOnly", "ProactiveOnly", "Both", "BothOnTime", "PsiOverhead"), point: redundancyShowdown},
}

// iterationTimes is Fig 10a: the wall time in microseconds of the
// scheduler's first greedy iteration (the practically significant cost per
// §4.1: iterations are computed while the previous configuration is being
// served), with exact and with greedy matching.
func iterationTimes(_ Scale, in instance, rng *rand.Rand) ([]float64, error) {
	g, load, err := in.build(rng)
	if err != nil {
		return nil, err
	}
	var vals []float64
	for _, m := range []core.Matcher{core.MatcherExact, core.MatcherGreedy} {
		s, err := core.New(g, load, core.Options{Window: in.Window, Delta: in.delta, Matcher: m})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, _, err := s.Step(); err != nil {
			return nil, err
		}
		vals = append(vals, float64(time.Since(start).Microseconds()))
	}
	return vals, nil
}

// makespan solves the §7 makespan-minimization problem and reports the
// minimal full-service window against a trivial lower bound: the busiest
// output port must emit its packets one per slot, plus one
// reconfiguration.
func makespan(sc Scale, in instance, rng *rand.Rand) ([]float64, error) {
	g, load, err := in.build(rng)
	if err != nil {
		return nil, err
	}
	w, _, err := algo.Makespan(g, load, core.Options{Delta: in.delta, Matcher: sc.Matcher})
	if err != nil {
		return nil, err
	}
	perPort := make(map[int]int)
	lb := 0
	for _, f := range load.Flows {
		perPort[f.Src] += f.Size
		lb = max(lb, perPort[f.Src])
	}
	return []float64{float64(w), float64(lb + in.delta)}, nil
}

// peakBuffers quantifies the in-network buffering multi-hop circuit
// scheduling requires: the peak per-node and aggregate packets parked at
// intermediate nodes under an Octopus schedule.
func peakBuffers(sc Scale, in instance, rng *rand.Rand) ([]float64, error) {
	g, load, err := in.build(rng)
	if err != nil {
		return nil, err
	}
	s, err := core.New(g, load, core.Options{Window: in.Window, Delta: in.delta, Matcher: sc.Matcher})
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{Window: in.Window, TrackBuffers: true})
	if err != nil {
		return nil, err
	}
	return []float64{float64(sim.MaxNodeBuffer), float64(sim.MaxTotalBuffer), sim.DeliveredFraction() * 100}, nil
}
