// Multiroute: joint routing and scheduling with Octopus+ on a partial
// (FSO-style) fabric where a complete topology is infeasible and flows
// carry several candidate routes. Compares Octopus+ against committing to
// a random route per flow (Octopus-random) and against always taking the
// shortest route, demonstrating the value of scheduling-aware route
// selection and direct-link backtracking (paper §6, Fig 9b).
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
		nodes  = flag.Int("n", 24, "network nodes")
		deg    = flag.Int("deg", 8, "fabric out-degree per node (partial FSO-style topology)")
		window = flag.Int("window", 1200, "window W in slots")
		delta  = flag.Int("delta", 20, "reconfiguration delay Δ in slots")
		routes = flag.Int("routes", 10, "candidate routes per flow")
		seed   = flag.Int64("seed", 3, "RNG seed")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	g := octopus.RandomPartial(*nodes, *deg, rng)
	fmt.Printf("partial fabric: %d nodes, %d of %d possible links\n",
		g.N(), g.M(), g.N()*(g.N()-1))

	p := octopus.DefaultSyntheticParams(*nodes, *window)
	p.RouteChoices = *routes
	load, err := octopus.Synthetic(g, p, rng)
	if err != nil {
		log.Fatal(err)
	}
	multi := 0
	for _, f := range load.Flows {
		if len(f.Routes) > 1 {
			multi++
		}
	}
	fmt.Printf("load: %d flows (%d with route choices), %d packets\n",
		len(load.Flows), multi, load.TotalPackets())

	// Octopus+: route choice at the first hop, direct-link backtracking.
	plus, err := octopus.Schedule(g, load, octopus.Options{
		Window: *window, Delta: *delta, MultiRoute: true, KeepTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := plus.VerifyPlan(); err != nil {
		log.Fatalf("plan verification failed: %v", err)
	}
	fmt.Printf("Octopus+        : %5.1f%% delivered (plan verified: capacity + hop ordering)\n",
		pct(plus.Delivered, plus.TotalPackets))

	// Octopus-random: commit each flow to a uniformly random route.
	rand1 := load.Clone()
	for i := range rand1.Flows {
		f := &rand1.Flows[i]
		f.Routes = []octopus.Route{f.Routes[rng.Intn(len(f.Routes))]}
	}
	measure(g, rand1, *window, *delta, "Octopus-random  ")

	// Shortest-route: commit each flow to its shortest candidate.
	short := load.Clone()
	for i := range short.Flows {
		f := &short.Flows[i]
		best := f.Routes[0]
		for _, r := range f.Routes[1:] {
			if r.Hops() < best.Hops() {
				best = r
			}
		}
		f.Routes = []octopus.Route{best}
	}
	measure(g, short, *window, *delta, "Octopus-shortest")

	// Proactive redundancy on the same partial fabric: protect the largest
	// half of the committed flows with an edge-disjoint backup route, then
	// knock out every link of one node mid-window and compare against the
	// unprotected load — with reactive repair disabled, only the provisioned
	// spatial diversity can save traffic routed through the victim.
	expanded, red := octopus.ProvisionRedundant(g, short, 2, 0.5, 2.0)
	victim := rng.Intn(*nodes)
	burst := octopus.CorrelatedTrace(g, []int{victim}, *window/2, *window, *window)
	fmt.Printf("\nredundancy: %d of %d flows protected with a disjoint copy; node %d's %d links fail at slot %d\n",
		len(red.Members()), len(short.Flows), victim, len(g.Out(victim))+len(g.In(victim)), *window/2)
	// Repair without Reactive: dead routes are never rebuilt.
	cfg := octopus.PipelineConfig{
		Core:   octopus.Options{Window: *window, Delta: *delta},
		Trace:  burst,
		Repair: true,
		Audit:  true,
	}
	bare, err := octopus.ScheduleOnline(g, arrivals(short), cfg, 6)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Red = red
	protRes, err := octopus.ScheduleOnline(g, arrivals(expanded), cfg, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unprotected     : %5.1f%% delivered, %d packets dropped\n",
		100*bare.UniqueDeliveredFraction(), bare.Dropped)
	fmt.Printf("with copies     : %5.1f%% delivered, %d packets dropped, %d survived via copies (psi overhead %.2fx)\n",
		100*protRes.UniqueDeliveredFraction(), protRes.Dropped, protRes.SurvivedRedundant,
		psiRatio(protRes, bare))
}

// arrivals offers every flow of the load at slot 0.
func arrivals(load *octopus.Load) []octopus.Arrival {
	arr := make([]octopus.Arrival, len(load.Flows))
	for i, f := range load.Flows {
		arr[i] = octopus.Arrival{Flow: f, At: 0}
	}
	return arr
}

// psiRatio is the schedule-effort overhead of the protected run.
func psiRatio(prot, bare *octopus.OnlineResult) float64 {
	if bare.Psi == 0 {
		return 1
	}
	return float64(prot.Psi) / float64(bare.Psi)
}

func measure(g *octopus.Network, load *octopus.Load, window, delta int, name string) {
	res, err := octopus.Schedule(g, load, octopus.Options{Window: window, Delta: delta})
	if err != nil {
		log.Fatal(err)
	}
	meas, err := octopus.Measure(g, load, res.Schedule, octopus.SimOptions{Window: window})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %5.1f%% delivered\n", name, 100*meas.DeliveredFraction())
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
