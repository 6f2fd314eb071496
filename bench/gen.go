package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// Every input is generated here from the run's seed; the packages under
// test only ever see the generated fabric, flows and requests.

// offlineConfig defines an offline workload: one seeded instance planned
// and replayed whole by a registry algorithm. The sizes are part of the
// workload's definition; tests build smaller ones.
type offlineConfig struct {
	name          string
	window, delta int
	spec          string // registry spec of the planner under test
	sharded       string // spec of the sharded cross-check run ("" for none)
	generate      func(rng *rand.Rand) (*graph.Digraph, *traffic.Store, error)
}

// fig4Exact is the paper's Fig-4/Fig-10 regime: a complete fabric under
// the §8 synthetic load, planned by Octopus with the exact matcher.
func fig4Exact(nodes, window, delta int) offlineConfig {
	return offlineConfig{
		name: "fig4-exact", window: window, delta: delta, spec: "octopus",
		generate: func(rng *rand.Rand) (*graph.Digraph, *traffic.Store, error) {
			g := graph.Complete(nodes)
			load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(nodes, window), rng)
			if err != nil {
				return nil, nil, err
			}
			store, err := traffic.FromLoad(load)
			return g, store, err
		},
	}
}

// podsFlows is the pod fabric under the skewed pod load, scaled to flows
// flows exactly as `mhsbench -bench-pods P -bench-flows F` scales it, and
// planned with the greedy matcher so that per-flow work dominates.
func podsFlows(pods, podSize, window, delta, flows int) offlineConfig {
	return offlineConfig{
		name: "pods-flows", window: window, delta: delta,
		spec:    "octopus:matcher=greedy",
		sharded: fmt.Sprintf("octopus-sharded:matcher=greedy,pods=%d", min(8, pods)),
		generate: func(rng *rand.Rand) (*graph.Digraph, *traffic.Store, error) {
			pp := traffic.DefaultPodParams(pods, podSize, window)
			perPod := max(4, flows/pods)
			pp.LargePerPod = perPod / 4
			pp.SmallPerPod = perPod - perPod/4
			pp.LargeTotal = max(pp.LargeTotal, pp.LargePerPod)
			pp.SmallTotal = max(pp.SmallTotal, pp.SmallPerPod)
			store, err := traffic.PodSynthetic(pp, rng)
			return pp.Fabric(), store, err
		},
	}
}

// offlineInstance is one generated instance as the program under test
// receives it: a fabric and a FormatBinary flow stream held in memory.
type offlineInstance struct {
	fabric *graph.Digraph
	stream []byte
	flows  int
	encode time.Duration // time spent in traffic.StreamWriter
}

// build generates the instance for seed and encodes it. Generation plus
// encoding is the workload's set-up.
func (c offlineConfig) build(seed int64) (*offlineInstance, error) {
	g, store, err := c.generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	start := time.Now()
	sw := traffic.NewStreamWriter(&buf, traffic.FormatBinary)
	for i := 0; i < store.Len(); i++ {
		f := store.FlowAt(i)
		if err := sw.Write(&f); err != nil {
			return nil, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return &offlineInstance{fabric: g, stream: buf.Bytes(), flows: store.Len(), encode: time.Since(start)}, nil
}

// arrivalConfig is the arrival process engine-churn and daemon-http share:
// a sparse random fabric and a steady stream of mostly small flows on
// shortest routes, a few of which are cancelled one epoch later.
type arrivalConfig struct {
	nodes, degree int
	core          core.Options
	flowsPerEpoch int
	cancelOneIn   int // one flow in cancelOneIn is cancelled an epoch later
}

// churnArrivals is the process at the size the two online workloads use.
func churnArrivals() arrivalConfig {
	return arrivalConfig{
		nodes: 128, degree: 8,
		core:          core.Options{Window: 500, Delta: 10, Matcher: core.MatcherGreedy},
		flowsPerEpoch: 40, cancelOneIn: 50,
	}
}

func (c arrivalConfig) fabric(rng *rand.Rand) *graph.Digraph {
	return graph.RandomPartial(c.nodes, c.degree, rng)
}

// flow draws one arrival: three in four are U[1,125] packets, the rest
// U[250,749], between two distinct random nodes over a BFS shortest route.
func (c arrivalConfig) flow(rng *rand.Rand, g *graph.Digraph, id int) (traffic.Flow, error) {
	src := rng.Intn(c.nodes)
	dst := rng.Intn(c.nodes - 1)
	if dst >= src {
		dst++
	}
	size := 1 + rng.Intn(125)
	if rng.Intn(4) == 0 {
		size = 250 + rng.Intn(500)
	}
	route, ok := traffic.ShortestRoute(g, src, dst)
	if !ok {
		return traffic.Flow{}, fmt.Errorf("no route %d->%d on the generated fabric", src, dst)
	}
	return traffic.Flow{ID: id, Src: src, Dst: dst, Size: size, Routes: []traffic.Route{route}}, nil
}

// churnInput is the pre-generated input of engine-churn: the flows each
// epoch submits and the IDs (of the previous epoch's flows) it cancels.
type churnInput struct {
	fabric  *graph.Digraph
	flows   [][]traffic.Flow
	cancels [][]int
}

func (c arrivalConfig) churn(seed int64, epochs int) (*churnInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &churnInput{fabric: c.fabric(rng), flows: make([][]traffic.Flow, epochs), cancels: make([][]int, epochs)}
	id := 1
	for e := 0; e < epochs; e++ {
		in.flows[e] = make([]traffic.Flow, c.flowsPerEpoch)
		for k := range in.flows[e] {
			f, err := c.flow(rng, in.fabric, id)
			if err != nil {
				return nil, err
			}
			in.flows[e][k] = f
			id++
			if e+1 < epochs && rng.Intn(c.cancelOneIn) == 0 {
				in.cancels[e+1] = append(in.cancels[e+1], f.ID)
			}
		}
	}
	return in, nil
}
