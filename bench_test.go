package octopus

import (
	"math/rand"
	"testing"

	"octopus/internal/core"
	"octopus/internal/experiment"
	"octopus/internal/matching"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
)

// reportPsi publishes the achieved ψ objective next to the timing numbers,
// in packet-hop units (ψ divided by traffic.WeightScale), so benchmark runs
// track solution quality as well as speed.
func reportPsi(b *testing.B, psi int64) {
	b.ReportMetric(float64(psi)/float64(traffic.WeightScale), "psi/op")
}

// benchScale is a reduced experiment scale so every figure benchmark
// completes quickly while exercising the full code path. Run
// mhsim -fig all -scale full to regenerate the paper-scale figures.
func benchScale() experiment.Scale {
	return experiment.Scale{
		Name:          "bench",
		Nodes:         12,
		Window:        400,
		Delta:         10,
		Instances:     2,
		Matcher:       core.MatcherExact,
		Seed:          1,
		Workers:       2,
		NodeSweep:     []int{8, 12},
		DeltaSweep:    []int{5, 20},
		SkewSweep:     []int{30, 70},
		SparsitySweep: []int{4, 8},
		HopSweep:      []int{1, 2, 3},
		TimeNodeSweep: []int{8, 12},
	}
}

func benchmarkFigure(b *testing.B, id string) {
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(id, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table/figure of the paper's evaluation (§8).

func BenchmarkFig4a(b *testing.B)  { benchmarkFigure(b, "4a") }
func BenchmarkFig4b(b *testing.B)  { benchmarkFigure(b, "4b") }
func BenchmarkFig4c(b *testing.B)  { benchmarkFigure(b, "4c") }
func BenchmarkFig4d(b *testing.B)  { benchmarkFigure(b, "4d") }
func BenchmarkFig5a(b *testing.B)  { benchmarkFigure(b, "5a") }
func BenchmarkFig5b(b *testing.B)  { benchmarkFigure(b, "5b") }
func BenchmarkFig5c(b *testing.B)  { benchmarkFigure(b, "5c") }
func BenchmarkFig5d(b *testing.B)  { benchmarkFigure(b, "5d") }
func BenchmarkFig6(b *testing.B)   { benchmarkFigure(b, "6") }
func BenchmarkFig7a(b *testing.B)  { benchmarkFigure(b, "7a") }
func BenchmarkFig7b(b *testing.B)  { benchmarkFigure(b, "7b") }
func BenchmarkFig8(b *testing.B)   { benchmarkFigure(b, "8") }
func BenchmarkFig9a(b *testing.B)  { benchmarkFigure(b, "9a") }
func BenchmarkFig9b(b *testing.B)  { benchmarkFigure(b, "9b") }
func BenchmarkFig10a(b *testing.B) { benchmarkFigure(b, "10a") }
func BenchmarkFig10b(b *testing.B) { benchmarkFigure(b, "10b") }

// benchInstance builds a paper-style synthetic instance.
func benchInstance(b *testing.B, n, window int) (*Network, *Load) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := Complete(n)
	load, err := Synthetic(g, DefaultSyntheticParams(n, window), rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, load
}

// BenchmarkIterationExact / BenchmarkIterationGreedy time one scheduler
// iteration at n=100 — the §8 "Execution Time" measurement behind Fig 10a
// (the iteration cost is the practically significant quantity: iterations
// run while the previous configuration carries traffic).
func benchmarkIteration(b *testing.B, m core.Matcher, n int) {
	g, load := benchInstance(b, n, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.New(g, load, core.Options{Window: 10000, Delta: 20, Matcher: m})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, ok, err := s.Step(); err != nil || !ok {
			b.Fatalf("step failed: %v %v", ok, err)
		}
	}
}

func BenchmarkIterationExact100(b *testing.B)  { benchmarkIteration(b, core.MatcherExact, 100) }
func BenchmarkIterationGreedy100(b *testing.B) { benchmarkIteration(b, core.MatcherGreedy, 100) }

// Matching substrate micro-benchmarks (the paper's Fig 10a compares the
// exact assignment solver against the linear-time greedy matcher).
func randomMatchingInstance(n int) []matching.Edge {
	rng := rand.New(rand.NewSource(2))
	var edges []matching.Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(4) == 0 {
				edges = append(edges, matching.Edge{From: i, To: j, Weight: rng.Int63n(10000)})
			}
		}
	}
	return edges
}

func BenchmarkMatchingExact100(b *testing.B) {
	edges := randomMatchingInstance(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		new(matching.Arena).MaxWeightBipartite(100, edges)
	}
}

func BenchmarkMatchingGreedy100(b *testing.B) {
	edges := randomMatchingInstance(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		new(matching.Arena).GreedyBipartite(100, edges)
	}
}

// BenchmarkSimulateReplay times the packet-level simulator replaying an
// Octopus schedule (the measurement path behind every figure).
func BenchmarkSimulateReplay(b *testing.B) {
	g, load := benchInstance(b, 24, 2000)
	res, err := Schedule(g, load, Options{Window: 2000, Delta: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var psi int64
	for i := 0; i < b.N; i++ {
		sres, err := simulate.Run(g, load, res.Schedule, simulate.Options{})
		if err != nil {
			b.Fatal(err)
		}
		psi = sres.Psi
	}
	reportPsi(b, psi)
}

// BenchmarkOctopusEndToEnd times a complete schedule-and-measure run.
func BenchmarkOctopusEndToEnd(b *testing.B) {
	g, load := benchInstance(b, 24, 1000)
	b.ReportAllocs()
	var psi int64
	for i := 0; i < b.N; i++ {
		res, err := Schedule(g, load, Options{Window: 1000, Delta: 20})
		if err != nil {
			b.Fatal(err)
		}
		m, err := Measure(g, load, res.Schedule, SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		psi = m.Psi
	}
	reportPsi(b, psi)
}

// BenchmarkOctopusPlus times the joint routing/scheduling variant.
func BenchmarkOctopusPlus(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := Complete(16)
	p := DefaultSyntheticParams(16, 600)
	p.RouteChoices = 10
	load, err := Synthetic(g, p, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var psi int64
	for i := 0; i < b.N; i++ {
		res, err := Schedule(g, load, Options{Window: 600, Delta: 10, MultiRoute: true})
		if err != nil {
			b.Fatal(err)
		}
		psi = res.Psi
	}
	reportPsi(b, psi)
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationAlphaFullVsBinary contrasts evaluating every α
// candidate against the Octopus-B ternary search.
func BenchmarkAblationAlphaFull(b *testing.B) {
	g, load := benchInstance(b, 16, 800)
	b.ReportAllocs()
	var psi int64
	for i := 0; i < b.N; i++ {
		res, err := Schedule(g, load, Options{Window: 800, Delta: 10})
		if err != nil {
			b.Fatal(err)
		}
		psi = res.Psi
	}
	reportPsi(b, psi)
}

func BenchmarkAblationAlphaBinary(b *testing.B) {
	g, load := benchInstance(b, 16, 800)
	b.ReportAllocs()
	var psi int64
	for i := 0; i < b.N; i++ {
		res, err := Schedule(g, load, Options{Window: 800, Delta: 10, AlphaSearch: AlphaBinary})
		if err != nil {
			b.Fatal(err)
		}
		psi = res.Psi
	}
	reportPsi(b, psi)
}

// BenchmarkAblationChained times the Theorem 2 chained-benefit greedy
// against the default one-hop benefit.
func BenchmarkAblationChained(b *testing.B) {
	g, load := benchInstance(b, 12, 400)
	b.ReportAllocs()
	var psi int64
	for i := 0; i < b.N; i++ {
		res, err := Schedule(g, load, Options{Window: 400, Delta: 10, MultiHop: true})
		if err != nil {
			b.Fatal(err)
		}
		psi = res.Psi
	}
	reportPsi(b, psi)
}
