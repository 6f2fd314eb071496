package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/traffic"
)

// TestObsReadOnlyAcrossParallelism is the core-level read-only property:
// for both matchers, the planned schedule and every plan metric must be
// identical across {Parallelism 1, Parallelism 4} × {Obs nil, Obs live}.
// The four runs share one load, so any instrumentation side effect on the
// greedy loop — a perturbed α choice, a reordered matching — shows up as a
// configuration-level diff. CI runs this under -race to also catch unsynced
// access from the parallel α workers to the shared instruments.
func TestObsReadOnlyAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Complete(10)
	load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(10, 300), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		m    Matcher
	}{{"exact", MatcherExact}, {"greedy", MatcherGreedy}} {
		t.Run(m.name, func(t *testing.T) {
			var ref *Result
			var refName string
			for _, par := range []int{1, 4} {
				for _, withObs := range []bool{false, true} {
					opt := Options{Window: 300, Delta: 8, Matcher: m.m, Parallelism: par}
					var tracer *obs.Tracer
					if withObs {
						tracer = obs.NewTracer(&bytes.Buffer{})
						opt.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Trace: tracer}
					}
					s, err := New(g, load, opt)
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					if tracer != nil {
						if err := tracer.Err(); err != nil {
							t.Fatalf("tracer error: %v", err)
						}
						if tracer.Events() == 0 {
							t.Fatal("instrumented run emitted no trace events")
						}
					}
					name := map[bool]string{false: "obs=off", true: "obs=on"}[withObs]
					if ref == nil {
						ref, refName = res, name
						continue
					}
					if res.Psi != ref.Psi || res.Hops != ref.Hops ||
						res.Delivered != ref.Delivered || res.Pending != ref.Pending ||
						res.Iterations != ref.Iterations {
						t.Errorf("par=%d %s: metrics diverge from %s: psi %d vs %d, hops %d vs %d, delivered %d vs %d",
							par, name, refName, res.Psi, ref.Psi, res.Hops, ref.Hops, res.Delivered, ref.Delivered)
					}
					if res.Schedule.Delta != ref.Schedule.Delta ||
						!reflect.DeepEqual(res.Schedule.Configs, ref.Schedule.Configs) {
						t.Errorf("par=%d %s: schedule diverges from %s", par, name, refName)
					}
				}
			}
		})
	}
}

// TestGreedyOrderMetrics: the four greedy counters reach the registry, the
// proposals inside their bound (at most positive links plus From nodes a
// solve), and all four agree between Parallelism 1 and 4: each solve's counts
// depend on its column alone, not on which arena saw it (see matching.Stats).
func TestGreedyOrderMetrics(t *testing.T) {
	keys := []string{"calls", "edges", "matched", "proposals"}
	run := func(g *graph.Digraph, load *traffic.Load, window, par int) map[string]int64 {
		reg := obs.NewRegistry()
		s, err := New(g, load, Options{Window: window, Delta: 10, Matcher: MatcherGreedy, Parallelism: par, Obs: &obs.Observer{Metrics: reg}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		m := make(map[string]int64)
		for _, k := range keys {
			m[k] = reg.Value("octopus_match_greedy_" + k + "_total")
		}
		if m["proposals"] < m["matched"] || m["proposals"] > m["edges"]+m["calls"]*int64(g.N()) {
			t.Fatalf("par %d: %v; want matched <= proposals <= edges + calls·n", par, m)
		}
		return m
	}
	check := func(g *graph.Digraph, load *traffic.Load, window int) {
		one, four := run(g, load, window, 1), run(g, load, window, 4)
		for _, k := range keys {
			if one[k] != four[k] {
				t.Errorf("greedy %s: %d at Parallelism 1, %d at 4", k, one[k], four[k])
			}
		}
	}
	g, load := churnInstance(t, 100)
	check(g, load, 500)
	g, load = randomQueues(36, 7)
	check(g, load, 3000)
}
