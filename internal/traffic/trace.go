package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"octopus/internal/graph"
)

// TraceKind selects one of the trace-like workload generators standing in
// for the publicly available traces used in the paper's §8. The real
// Facebook FBFlow dataset and Microsoft heatmaps are not redistributable,
// so these generators reproduce the published characteristics that the
// figures depend on (flow-size distribution shape, skew, sparsity, and
// hot-spot structure); flow sizes are then rescaled so the maximum flow
// equals the window, exactly as the paper does with the real traces. See
// DESIGN.md §5 (Substitutions).
type TraceKind int

const (
	// FBHadoop mimics a Facebook Hadoop cluster: wide all-to-all traffic
	// with a broad log-normal flow-size distribution and mild locality.
	FBHadoop TraceKind = iota
	// FBWeb mimics a Facebook front-end web cluster: many small flows with
	// strong locality toward a small set of hot (cache) destinations.
	FBWeb
	// FBDatabase mimics a Facebook database cluster: traffic dominated by
	// a very small number of very large flows (high skew).
	FBDatabase
	// MSHeatmap mimics the Microsoft datacenter traffic heatmaps: a
	// block-structured pattern where a few hot source/destination groups
	// dominate over a light background.
	MSHeatmap
)

// String returns the short label used in the paper's Fig 6.
func (k TraceKind) String() string {
	switch k {
	case FBHadoop:
		return "FB-1"
	case FBWeb:
		return "FB-2"
	case FBDatabase:
		return "FB-3"
	case MSHeatmap:
		return "MS"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceLike generates a trace-like load over fabric g: the kind's demand
// matrix through FromDemandMatrix. Flow sizes are scaled so the maximum
// flow equals window; routes are assigned like the synthetic generator
// (even split over 1..3 hops unless overridden by p's route fields). p's
// NL/NS/CL/CS fields are ignored.
func TraceLike(g *graph.Digraph, kind TraceKind, window int, p SyntheticParams, rng *rand.Rand) (*Load, error) {
	return FromDemandMatrix(g, traceDemand(kind, g.N(), rng), window, p, rng)
}

// traceDemand builds the raw (unscaled) demand matrix for a trace kind.
func traceDemand(kind TraceKind, n int, rng *rand.Rand) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	logNormal := func(mu, sigma float64) float64 {
		return math.Exp(mu + sigma*rng.NormFloat64())
	}
	switch kind {
	case FBHadoop:
		// ~60% of pairs active, broad log-normal sizes.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.6 {
					d[i][j] = logNormal(0, 1.5)
				}
			}
		}
	case FBWeb:
		// 10% hot cache destinations receive heavy flows from everyone;
		// sparse light background elsewhere.
		hot := rng.Perm(n)[:max(1, n/10)]
		isHot := make(map[int]bool, len(hot))
		for _, h := range hot {
			isHot[h] = true
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				switch {
				case isHot[j]:
					d[i][j] = logNormal(3, 1)
				case rng.Float64() < 0.1:
					d[i][j] = logNormal(0, 0.5)
				}
			}
		}
	case FBDatabase:
		// A handful of dominant flows (Pareto tail), very sparse rest.
		heavy := max(1, n*n/50)
		for k := 0; k < heavy; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			// Pareto with alpha ~1.2: strong skew.
			d[i][j] += math.Pow(rng.Float64(), -1/1.2)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.02 {
					d[i][j] += logNormal(-1, 0.5)
				}
			}
		}
	case MSHeatmap:
		// Hot blocks: a few hot source and destination groups dominate.
		hb := max(2, n/12)
		hotSrc := rng.Perm(n)[:hb]
		hotDst := rng.Perm(n)[:hb]
		for _, i := range hotSrc {
			for _, j := range hotDst {
				if i != j {
					d[i][j] = logNormal(3, 0.7)
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.2 {
					d[i][j] += logNormal(-0.5, 0.8)
				}
			}
		}
	default:
		panic(fmt.Sprintf("traffic: unknown trace kind %d", int(kind)))
	}
	return d
}
