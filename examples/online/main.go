// Online: flows arrive over time (the paper's §9 future-work setting).
// Epoch-based Octopus replans each window from the known backlog, carrying
// residual packets forward from their current positions, until the
// arrivals drain.
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
		window = flag.Int("window", 400, "epoch length in slots")
		delta  = flag.Int("delta", 20, "reconfiguration delay Δ in slots")
		epochs = flag.Int("epochs", 6, "arrival spread in epochs")
		seed   = flag.Int64("seed", 13, "RNG seed")
	)
	flag.Parse()

	g := octopus.Complete(*nodes)
	rng := rand.New(rand.NewSource(*seed))
	load, err := octopus.Synthetic(g, octopus.DefaultSyntheticParams(*nodes, *window*2), rng)
	if err != nil {
		log.Fatal(err)
	}
	var arrivals []octopus.Arrival
	for _, f := range load.Flows {
		arrivals = append(arrivals, octopus.Arrival{
			Flow: f,
			At:   rng.Intn(*epochs) * *window,
		})
	}
	fmt.Printf("%d flows, %d packets arriving over %d epochs of %d slots\n\n",
		len(arrivals), load.TotalPackets(), *epochs, *window)

	oct, err := octopus.ScheduleOnline(g, arrivals, octopus.PipelineConfig{
		Core: octopus.Options{Window: *window, Delta: *delta},
	}, *epochs+6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Octopus epochs: %.1f%% delivered in %d epochs, mean completion %.1f epochs\n",
		100*oct.DeliveredFraction(), len(oct.Epochs),
		oct.MeanCompletionEpochs(arrivals, *window))
}
