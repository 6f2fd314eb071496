// Rolling: continuous operation across scheduling windows. A heavily
// loaded fabric cannot serve everything in one window; the paper notes
// that undelivered packets are not lost — they are "considered for
// continued routing in the next time window". This example schedules a
// bursty load across successive windows, carrying residual packets (from
// their current positions in the network) forward until everything is
// delivered.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"octopus"
)

func main() {
	var (
		nodes  = flag.Int("n", 16, "network nodes")
		window = flag.Int("window", 400, "window W in slots")
		delta  = flag.Int("delta", 20, "reconfiguration delay Δ in slots")
		burst  = flag.Int("burst", 3, "offered load as a multiple of one window's per-port capacity")
		seed   = flag.Int64("seed", 11, "RNG seed")
	)
	flag.Parse()

	g := octopus.Complete(*nodes)
	rng := rand.New(rand.NewSource(*seed))
	// Offer several windows' worth of traffic at once (a burst).
	p := octopus.DefaultSyntheticParams(*nodes, *window**burst)
	load, err := octopus.Synthetic(g, p, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("burst: %d packets over %d nodes (~%dx one window's per-port capacity)\n\n",
		load.TotalPackets(), *nodes, *burst)

	// The whole burst is known at slot 0; every window after the first
	// schedules what the one before it left behind.
	arrivals := make([]octopus.Arrival, len(load.Flows))
	for i, f := range load.Flows {
		arrivals[i] = octopus.Arrival{Flow: f}
	}
	res, err := octopus.ScheduleOnline(g, arrivals, octopus.PipelineConfig{
		Core:      octopus.Options{Window: *window, Delta: *delta},
		KeepPlans: true, // for the per-window configuration counts
	}, 100)
	if err != nil {
		log.Fatal(err)
	}
	cum := 0
	for i, w := range res.Epochs {
		cum += w.Delivered
		fmt.Printf("window %2d: offered %6d, delivered %6d (%5.1f%% cumulative), residual %6d, %d configs\n",
			i+1, w.Offered, w.Delivered,
			100*float64(cum)/float64(load.TotalPackets()),
			w.Backlog, len(w.Plan.Schedule.Configs))
	}
	fmt.Printf("\nburst fully drained in %d windows (%d slots)\n",
		len(res.Epochs), len(res.Epochs)**window)
}
