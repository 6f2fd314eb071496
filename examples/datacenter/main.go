// Datacenter: schedule realistic data-center traffic mixes on a hybrid
// circuit fabric and compare every algorithm in the registry — Octopus and
// its variants against the Eclipse and RotorNet baselines, the hybrid
// circuit/packet scheme, and the UB upper bound — over both the synthetic
// workload and the trace-like loads standing in for the Facebook/Microsoft
// traces.
//
// The comparison loop is registry-driven: it enumerates
// octopus.Algorithms() rather than hand-rolling one block per algorithm,
// so a newly registered algorithm shows up here with no code change.
//
// Flags scale the scenario; defaults run in a few seconds.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"octopus"
)

func main() {
	var (
		nodes  = flag.Int("n", 24, "network nodes")
		window = flag.Int("window", 1500, "window W in slots")
		delta  = flag.Int("delta", 20, "reconfiguration delay Δ in slots")
		seed   = flag.Int64("seed", 7, "RNG seed")
	)
	flag.Parse()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\talgorithm\tkind\tdelivered%\tutilization%")

	workloads := []struct {
		name string
		gen  func(g *octopus.Network, rng *rand.Rand) (*octopus.Load, error)
	}{
		{"synthetic", func(g *octopus.Network, rng *rand.Rand) (*octopus.Load, error) {
			return octopus.Synthetic(g, octopus.DefaultSyntheticParams(*nodes, *window), rng)
		}},
		{"fb-hadoop", trace(octopus.FBHadoop, *window)},
		{"fb-web", trace(octopus.FBWeb, *window)},
		{"fb-db", trace(octopus.FBDatabase, *window)},
		{"ms-heatmap", trace(octopus.MSHeatmap, *window)},
	}

	params := octopus.AlgoParams{Window: *window, Delta: *delta, Seed: *seed}
	for _, wl := range workloads {
		g := octopus.Complete(*nodes)
		rng := rand.New(rand.NewSource(*seed))
		load, err := wl.gen(g, rng)
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range octopus.Algorithms() {
			out, err := a.Run(g, load, params)
			if err != nil {
				log.Fatalf("%s on %s: %v", a.Name(), wl.name, err)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%.1f\t%.1f\n", wl.name, out.Algo, a.Kind(),
				100*out.DeliveredFraction(), 100*out.Utilization())
		}
	}
	w.Flush()
}

func trace(kind octopus.TraceKind, window int) func(*octopus.Network, *rand.Rand) (*octopus.Load, error) {
	return func(g *octopus.Network, rng *rand.Rand) (*octopus.Load, error) {
		return octopus.TraceLike(g, kind, window, rng)
	}
}
