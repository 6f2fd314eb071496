package matching

import (
	"math/rand"
	"testing"
)

func benchBipartite(n int, density int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(density) == 0 {
				edges = append(edges, Edge{From: i, To: j, Weight: rng.Int63n(1 << 20)})
			}
		}
	}
	return edges
}

func BenchmarkHungarian(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		edges := benchBipartite(n, 4, 1)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				new(Arena).MaxWeightBipartite(n, edges)
			}
		})
	}
}

// BenchmarkExactSolve times the exact solver through one reused Arena on the
// three shapes it meets: the planner's small-α instance (a sparse support
// with a handful of distinct weights, so long zero-delta augmenting chains),
// BenchmarkHungarian's random quarter-density point, and a matrix with every
// cell positive (where no relaxation can be skipped). rounds/op is the event
// count: it moves only if a change alters the sequence of augment rounds.
func BenchmarkExactSolve(b *testing.B) {
	dense := benchBipartite(256, 1, 1)
	for i := 0; i < 256; i++ {
		dense = append(dense, Edge{From: i, To: i, Weight: 1 + int64(i)})
	}
	for _, bc := range []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"tied-sparse-n256", 256, tiedInstance(rand.New(rand.NewSource(1)), 256, 0.10, []int64{64, 128, 192})},
		{"random-quarter-n200", 200, benchBipartite(200, 4, 1)},
		{"dense-n256", 256, dense},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var a Arena
			a.MaxWeightBipartite(bc.n, bc.edges)
			rounds := a.Stats.AugmentRounds
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MaxWeightBipartite(bc.n, bc.edges)
			}
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}

func BenchmarkGreedyBipartite(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		edges := benchBipartite(n, 4, 1)
		b.Run(sizeName(n), func(b *testing.B) {
			var a Arena
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.GreedyBipartite(n, edges)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000:
		return "n1000"
	case n >= 400:
		return "n400"
	case n >= 200:
		return "n200"
	case n >= 100:
		return "n100"
	default:
		return "n50"
	}
}

// BenchmarkGreedyAlphaSweep is one greedy iteration of core as the matcher
// sees it: one link list solved under every candidate α's column, ascending,
// on one arena (queueColumns models the g-table), in sweepRuns runs as core's
// phase 1 cuts a table block: a run's first column solved afresh, each later
// one by GreedyNext after the one before. The sizes are an engine-churn
// epoch, the pods-flows fabric and a fig4-exact iteration (few α's, far
// apart). proposals/op is the deferred-acceptance proposals of one sweep and
// kept/op its kept matchings: both depend on the columns alone.
func BenchmarkGreedyAlphaSweep(b *testing.B) {
	for _, bc := range []struct {
		name                                         string
		n, links, alphas, maxAlpha, entries, maxSize int
	}{
		{"churn-151x72", 128, 151, 72, 490, 4, 300},
		{"pods-35000x55", 1024, 35000, 55, 508, 28, 24},
		{"fig4-6900x13", 256, 6900, 13, 9980, 8, 1500},
	} {
		rng := rand.New(rand.NewSource(1))
		links := queueLinks(rng, bc.n, bc.links)
		cols := queueColumns(rng, bc.links, bc.entries, bc.maxSize, ascendingAlphas(rng, bc.alphas, bc.maxAlpha))
		b.Run(bc.name, func(b *testing.B) {
			var a Arena
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := range sweepRuns {
					var prev []int64
					for _, col := range cols[r*len(cols)/sweepRuns : (r+1)*len(cols)/sweepRuns] {
						_, w := a.GreedyNext(bc.n, links, prev, col)
						greedySink += w
						prev = col
					}
				}
			}
			b.ReportMetric(float64(a.Stats.GreedyProposals)/float64(b.N), "proposals/op")
			b.ReportMetric(float64(a.Stats.GreedyKept)/float64(b.N), "kept/op")
		})
	}
}

var greedySink int64

// sweepRuns is core's alphaRuns.
const sweepRuns = 8
