package core

import (
	"io"
	"math/rand"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/traffic"
)

func benchInstance(b *testing.B, n, window int) (*graph.Digraph, *traffic.Load) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.Complete(n)
	load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(n, window), rng)
	if err != nil {
		b.Fatal(err)
	}
	return g, load
}

// BenchmarkStep measures steady-state greedy iterations (the §4.1
// practically significant quantity) for both matchers. The scheduler is
// warmed with one untimed Step so the one-time queue and weight-class
// construction is excluded; when a run completes, a fresh warmed scheduler
// replaces it outside the timer.
func BenchmarkStep(b *testing.B) {
	for _, m := range []struct {
		name string
		m    Matcher
	}{{"exact", MatcherExact}, {"greedy", MatcherGreedy}} {
		b.Run(m.name, func(b *testing.B) {
			g, load := benchInstance(b, 50, 5000)
			newWarm := func() *Scheduler {
				s, err := New(g, load, Options{Window: 5000, Delta: 20, Matcher: m.m})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := s.Step(); err != nil || !ok {
					b.Fatal("warmup step failed")
				}
				return s
			}
			s := newWarm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ok, err := s.Step()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.StopTimer()
					s = newWarm()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkStepObs measures the cost of the instrumentation seam itself:
// "off" runs with Options.Obs nil (the default no-op path, one nil check
// per event — this must stay within noise of BenchmarkStep), "on" attaches
// a metrics registry and a tracer draining into io.Discard. benchstat of
// the two quantifies the full-observability overhead.
func BenchmarkStepObs(b *testing.B) {
	for _, v := range []struct {
		name string
		mk   func() *obs.Observer
	}{
		{"off", func() *obs.Observer { return nil }},
		{"on", func() *obs.Observer {
			return &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(io.Discard)}
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			g, load := benchInstance(b, 50, 5000)
			newWarm := func() *Scheduler {
				s, err := New(g, load, Options{Window: 5000, Delta: 20, Obs: v.mk()})
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := s.Step(); err != nil || !ok {
					b.Fatal("warmup step failed")
				}
				return s
			}
			s := newWarm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ok, err := s.Step()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.StopTimer()
					s = newWarm()
					b.StartTimer()
				}
			}
		})
	}
}

var gValueSink int64

// BenchmarkGValue measures g(i, j, α) over every active link of a mid-run
// queue state, across the α magnitudes the greedy loop probes: one g-table
// block of four α's.
func BenchmarkGValue(b *testing.B) {
	g, load := benchInstance(b, 50, 5000)
	s, err := New(g, load, Options{Window: 5000, Delta: 20})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			b.Fatal("warmup step failed")
		}
	}
	states := s.tr.activeStates()
	alphas := []int{1, 16, 256, 5000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.fillG(states, alphas)
		gValueSink += s.gbuf[0]
	}
}

// BenchmarkNewRemaining measures building T^r, per-flow work only, no
// matching: pods is 100k single-route flows on a 16×16 pod fabric (the
// instance TestNewBytesPerFlow weighs), octopus+ 10k flows of up to ten
// routes each with backtracking on. B/op ÷ flows is the layout's cost.
func BenchmarkNewRemaining(b *testing.B) {
	b.Run("pods", func(b *testing.B) {
		g, load := podInstance(b, 16, 16, 100_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newRemaining(g, load, 0, false, false, false)
		}
	})
	b.Run("octopus+", func(b *testing.B) {
		g := graph.Complete(64)
		p := traffic.DefaultSyntheticParams(64, 8000)
		p.NL, p.NS, p.RouteChoices = 40, 120, 10
		load, err := traffic.Synthetic(g, p, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newRemaining(g, load, 0, true, true, false)
		}
	})
}

var weightedEdgesSink int

// BenchmarkWeightedEdgesGreedy measures what matcher=greedy pays per
// iteration before any matching: the g(link, α) table and the weighted edge
// list of every candidate α, on the same instance a few configurations in.
func BenchmarkWeightedEdgesGreedy(b *testing.B) {
	g, load := podInstance(b, 16, 16, 100_000)
	s, err := New(g, load, Options{Window: 512, Delta: 4, Matcher: MatcherGreedy, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			b.Fatal("warmup step failed")
		}
	}
	alphas := append([]int(nil), s.tr.candidateAlphas(512)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.forAlphas(alphas, len(alphas), func(sc *evalScratch, _ int, _, col []int64) { weightedEdgesSink += len(sc.weighted(s.tr.glinks, col)) })
	}
}

// BenchmarkCandidateAlphas measures Procedure 1.
func BenchmarkCandidateAlphas(b *testing.B) {
	g, load := benchInstance(b, 50, 5000)
	s, err := New(g, load, Options{Window: 5000, Delta: 20})
	if err != nil {
		b.Fatal(err)
	}
	s.tr.candidateAlphas(5000) // size the marks untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tr.candidateAlphas(5000)
	}
}

// BenchmarkApply measures remaining-traffic application throughput. n50
// applies one configuration of 50 links to a synthetic load on a complete
// graph; pods applies, to a freshly built T^r, every configuration a greedy
// plan of BenchmarkNewRemaining's pod instance chose — Step's apply over the
// whole plan, building excluded.
func BenchmarkApply(b *testing.B) {
	b.Run("n50", func(b *testing.B) {
		g, load := benchInstance(b, 50, 5000)
		links := make([]graph.Edge, 0, 50)
		for i := 0; i < 50; i++ {
			links = append(links, graph.Edge{From: i, To: (i + 1) % 50})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr := newRemaining(g, load, 0, false, false, false)
			b.StartTimer()
			tr.apply(links, 100)
		}
	})
	b.Run("pods", func(b *testing.B) {
		g, load := podInstance(b, 16, 16, 100_000)
		s, err := New(g, load, Options{Window: 512, Delta: 4, Matcher: MatcherGreedy})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tr := newRemaining(g, load, 0, false, false, false)
			b.StartTimer()
			for _, cfg := range res.Schedule.Configs {
				tr.apply(cfg.Links, cfg.Alpha)
			}
		}
		b.ReportMetric(float64(len(res.Schedule.Configs)), "configs/op")
	})
}

// BenchmarkFullRun measures a complete Octopus run at a moderate scale.
func BenchmarkFullRun(b *testing.B) {
	g, load := benchInstance(b, 32, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(g, load, Options{Window: 1500, Delta: 20})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOctopusPlusRun measures the joint routing/scheduling variant.
func BenchmarkOctopusPlusRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Complete(24)
	p := traffic.DefaultSyntheticParams(24, 800)
	p.RouteChoices = 10
	load, err := traffic.Synthetic(g, p, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(g, load, Options{Window: 800, Delta: 20, MultiRoute: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
