// Online: flows arrive over time (the paper's §9 future-work setting).
// Compares two controllers on the same arrival sequence: epoch-based
// Octopus (replan each window from the known backlog, carrying residual
// packets forward) and the queue-state-driven MaxWeight adaptive policy
// from the related work, with and without reconfiguration hysteresis.
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
		window = flag.Int("window", 400, "epoch length / MaxWeight horizon granularity")
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
	horizon := (*epochs + 6) * *window
	fmt.Printf("%d flows, %d packets arriving over %d epochs of %d slots\n\n",
		len(arrivals), load.TotalPackets(), *epochs, *window)

	oct, err := octopus.ScheduleOnline(g, arrivals, octopus.PipelineConfig{
		Core: octopus.Options{Window: *window, Delta: *delta},
	}, horizon / *window)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Octopus epochs      : %5.1f%% delivered in %d epochs, mean completion %.1f epochs\n",
		100*oct.DeliveredFraction(), len(oct.Epochs),
		oct.MeanCompletionEpochs(arrivals, *window))

	for _, hys := range []int{0, 96} {
		res, err := octopus.MaxWeightAdaptive(g, arrivals, octopus.AdaptiveOptions{
			Horizon:      horizon,
			Delta:        *delta,
			Hold:         10 * *delta,
			Hysteresis64: hys,
		})
		if err != nil {
			log.Fatal(err)
		}
		name := "MaxWeight           "
		if hys > 0 {
			name = "MaxWeight (hys 1.5x)"
		}
		fmt.Printf("%s: %5.1f%% delivered, %d reconfigurations\n",
			name, 100*res.DeliveredFraction(), res.Reconfigs)
	}
}
