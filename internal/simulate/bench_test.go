package simulate

import (
	"math/rand"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// benchScenario builds a load and a round-robin schedule that moves it.
func benchScenario(b *testing.B, n, window int) (*graph.Digraph, *traffic.Load, *schedule.Schedule) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.Complete(n)
	load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(n, window), rng)
	if err != nil {
		b.Fatal(err)
	}
	sch := &schedule.Schedule{Delta: 20}
	for r := 1; r < n; r++ {
		links := make([]graph.Edge, 0, n)
		for i := 0; i < n; i++ {
			links = append(links, graph.Edge{From: i, To: (i + r) % n})
		}
		sch.Configs = append(sch.Configs, schedule.Configuration{Links: links, Alpha: window / n})
		if sch.Cost() > window {
			break
		}
	}
	sch.Truncate(window)
	return g, load, sch
}

// BenchmarkReplayBulk replays in bulk mode. pods is BenchmarkNewRemaining's
// shape in internal/core — 100k single-route flows on a 16×16 pod fabric —
// under a schedule of one configuration, so that validating the load and
// building the state is the op: B/op ÷ flows is the layout's cost, allocs/op must not grow with flows.
func BenchmarkReplayBulk(b *testing.B) {
	b.Run("pods", func(b *testing.B) {
		g, load := podInstance(b, 16, 16, 100_000)
		sch := &schedule.Schedule{Delta: 4, Configs: []schedule.Configuration{{Links: []graph.Edge{g.Edges()[0]}, Alpha: 8}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, load, sch, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{24, 48} {
		g, load, sch := benchScenario(b, n, 2000)
		b.Run(map[int]string{24: "n24", 48: "n48"}[n], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, load, sch, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplayMultiHop(b *testing.B) {
	g, load, sch := benchScenario(b, 24, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, load, sch, Options{MultiHop: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplayWithBufferTracking(b *testing.B) {
	g, load, sch := benchScenario(b, 24, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, load, sch, Options{TrackBuffers: true}); err != nil {
			b.Fatal(err)
		}
	}
}
