package octopus_test

import (
	"fmt"
	"log"
	"math/rand"
	"testing"

	"octopus"
)

// ExampleSchedule plans a schedule for the paper's synthetic data-center
// workload, replays it slot by slot, and compares the delivery with the
// paper's UB upper bound.
func ExampleSchedule() {
	const (
		nodes  = 16
		window = 1000 // W: scheduling window in time slots
		delta  = 20   // Δ: reconfiguration delay in time slots
	)
	// A complete fabric models a single n x n circuit switch; the load mixes
	// a few large and many small flows per port, with routes of 1-3 hops.
	g := octopus.Complete(nodes)
	load, err := octopus.Synthetic(g, octopus.DefaultSyntheticParams(nodes, window), rand.New(rand.NewSource(42)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load: %d flows, %d packets, max route %d hops\n",
		len(load.Flows), load.TotalPackets(), load.MaxHops())

	// Plan: Octopus greedily picks the configuration (matching, duration)
	// with the highest benefit per unit cost until the window is full.
	res, err := octopus.Schedule(g, load, octopus.Options{Window: window, Delta: delta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %d configurations, cost %d of %d slots\n",
		len(res.Schedule.Configs), res.Schedule.Cost(), window)
	for i, cfg := range res.Schedule.Configs {
		fmt.Printf("  %d: %d links for %d slots\n", i, len(cfg.Links), cfg.Alpha)
	}

	// Measure: replay the schedule slot by slot.
	meas, err := octopus.Measure(g, load, res.Schedule, octopus.SimOptions{Window: window})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered: %d/%d packets (%.1f%%), link utilization %.1f%%\n",
		meas.Delivered, meas.TotalPackets, 100*meas.DeliveredFraction(), 100*meas.Utilization())

	ub, err := octopus.RunAlgorithm("ub", g, load, octopus.AlgoParams{Window: window, Delta: delta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("UB upper bound: %.1f%% delivered\n", 100*ub.DeliveredFraction())
	// Output:
	// load: 32 flows, 16000 packets, max route 3 hops
	// schedule: 3 configurations, cost 1000 of 1000 slots
	//   0: 13 links for 300 slots
	//   1: 12 links for 400 slots
	//   2: 11 links for 240 slots
	// delivered: 6180/16000 packets (38.6%), link utilization 99.1%
	// UB upper bound: 45.6% delivered
}

// ExampleSchedule_multiRoute is Octopus+ (paper §6): on a partial
// FSO-style fabric each flow offers several candidate routes, and the
// scheduler picks a route at the first hop. Committing every flow to one
// route beforehand, at random or the shortest, delivers less.
func ExampleSchedule_multiRoute() {
	const window, delta = 1200, 20
	rng := rand.New(rand.NewSource(3))
	g := octopus.RandomPartial(24, 8, rng)
	p := octopus.DefaultSyntheticParams(g.N(), window)
	p.RouteChoices = 10
	load, err := octopus.Synthetic(g, p, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial fabric: %d nodes, %d of %d possible links; %d flows, %d packets\n",
		g.N(), g.M(), g.N()*(g.N()-1), len(load.Flows), load.TotalPackets())

	plus, err := octopus.Schedule(g, load, octopus.Options{
		Window: window, Delta: delta, MultiRoute: true, KeepTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	// VerifyPlan re-checks link capacity and hop ordering from the trace.
	if err := plus.VerifyPlan(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Octopus+        : %5.1f%% delivered\n", 100*float64(plus.Delivered)/float64(plus.TotalPackets))

	random, shortest := load.Clone(), load.Clone()
	for i := range load.Flows {
		routes := load.Flows[i].Routes
		random.Flows[i].Routes = []octopus.Route{routes[rng.Intn(len(routes))]}
		best := routes[0]
		for _, r := range routes[1:] {
			if r.Hops() < best.Hops() {
				best = r
			}
		}
		shortest.Flows[i].Routes = []octopus.Route{best}
	}
	for _, c := range []struct {
		name string
		load *octopus.Load
	}{{"Octopus-random  ", random}, {"Octopus-shortest", shortest}} {
		res, err := octopus.Schedule(g, c.load, octopus.Options{Window: window, Delta: delta})
		if err != nil {
			log.Fatal(err)
		}
		meas, err := octopus.Measure(g, c.load, res.Schedule, octopus.SimOptions{Window: window})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %5.1f%% delivered\n", c.name, 100*meas.DeliveredFraction())
	}
	// Output:
	// partial fabric: 24 nodes, 192 of 552 possible links; 72 flows, 28800 packets
	// Octopus+        :  47.0% delivered
	// Octopus-random  :  25.6% delivered
	// Octopus-shortest:  45.8% delivered
}

// ExampleProvisionRedundant protects the largest half of the flows with
// an edge-disjoint copy, then fails every link of one node mid-window.
// Repair runs without Reactive, so no dead route is rebuilt: only the
// provisioned copies can save the traffic routed through that node.
func ExampleProvisionRedundant() {
	const window, delta = 1200, 20
	rng := rand.New(rand.NewSource(3))
	g := octopus.RandomPartial(24, 8, rng)
	load, err := octopus.Synthetic(g, octopus.DefaultSyntheticParams(g.N(), window), rng)
	if err != nil {
		log.Fatal(err)
	}
	expanded, red := octopus.ProvisionRedundant(g, load, 2, 0.5, 2.0)
	const victim = 7
	burst := octopus.CorrelatedTrace(g, []int{victim}, window/2, window, window)
	fmt.Printf("%d of %d flows protected; node %d's %d links fail at slot %d\n",
		len(red.Members()), len(load.Flows), victim, len(g.Out(victim))+len(g.In(victim)), window/2)

	cfg := octopus.PipelineConfig{
		Core:   octopus.Options{Window: window, Delta: delta},
		Trace:  burst,
		Repair: true,
		Audit:  true,
	}
	bare, err := octopus.ScheduleOnline(g, atSlotZero(load), cfg, 6)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Red = red
	prot, err := octopus.ScheduleOnline(g, atSlotZero(expanded), cfg, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unprotected: %5.1f%% delivered, %d packets dropped\n",
		100*bare.UniqueDeliveredFraction(), bare.Dropped)
	fmt.Printf("with copies: %5.1f%% delivered, %d packets dropped, %d survived via copies (psi %.2fx)\n",
		100*prot.UniqueDeliveredFraction(), prot.Dropped, prot.SurvivedRedundant,
		float64(prot.Psi)/float64(bare.Psi))
	// Output:
	// 35 of 72 flows protected; node 7's 19 links fail at slot 600
	// unprotected:  90.6% delivered, 2700 packets dropped
	// with copies:  93.6% delivered, 3500 packets dropped, 2040 survived via copies (psi 1.80x)
}

// atSlotZero offers every flow of the load at slot 0.
func atSlotZero(load *octopus.Load) []octopus.Arrival {
	arr := make([]octopus.Arrival, len(load.Flows))
	for i, f := range load.Flows {
		arr[i] = octopus.Arrival{Flow: f}
	}
	return arr
}

// ExampleMakespan finds the smallest window that fully serves a load.
func ExampleMakespan() {
	g := octopus.Complete(2)
	load := &octopus.Load{Flows: []octopus.Flow{
		{ID: 1, Size: 25, Src: 0, Dst: 1, Routes: []octopus.Route{{0, 1}}},
	}}
	w, _, err := octopus.Makespan(g, load, octopus.Options{Delta: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan: %d slots (25 packets + one reconfiguration)\n", w)

	// A synthetic mix of multi-hop flows needs many configurations.
	g = octopus.Complete(16)
	load, err = octopus.Synthetic(g, octopus.SyntheticParams{
		NL: 1, NS: 3, CL: 140, CS: 60, MinHops: 1, MaxHops: 3,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		log.Fatal(err)
	}
	w, res, err := octopus.Makespan(g, load, octopus.Options{Delta: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan: %d packets in %d slots (%d configurations)\n",
		load.TotalPackets(), w, len(res.Schedule.Configs))
	// Output:
	// makespan: 30 slots (25 packets + one reconfiguration)
	// makespan: 3200 packets in 1380 slots (26 configurations)
}

// ExampleScheduleOnline drains a burst of about three windows' traffic
// across scheduling windows. Undelivered packets are not lost: each
// window schedules what the one before it left behind, from the packets'
// current positions in the network (the paper's continued routing in the
// next time window).
func ExampleScheduleOnline() {
	const nodes, window = 16, 400
	g := octopus.Complete(nodes)
	load, err := octopus.Synthetic(g, octopus.DefaultSyntheticParams(nodes, 3*window), rand.New(rand.NewSource(11)))
	if err != nil {
		log.Fatal(err)
	}
	res, err := octopus.ScheduleOnline(g, atSlotZero(load), octopus.PipelineConfig{
		Core:      octopus.Options{Window: window, Delta: 20},
		KeepPlans: true, // for the per-window configuration counts
	}, 100)
	if err != nil {
		log.Fatal(err)
	}
	for i, w := range res.Epochs {
		fmt.Printf("window %2d: offered %5d, delivered %4d, residual %5d, %d configs\n",
			i+1, w.Offered, w.Delivered, w.Backlog, len(w.Plan.Schedule.Configs))
	}
	fmt.Printf("burst drained in %d windows (%d slots)\n", len(res.Epochs), len(res.Epochs)*window)
	// Output:
	// window  1: offered 19200, delivered 3600, residual 15600, 1 configs
	// window  2: offered 15600, delivered 2520, residual 13080, 1 configs
	// window  3: offered 13080, delivered 1320, residual 11760, 2 configs
	// window  4: offered 11760, delivered 2200, residual  9560, 3 configs
	// window  5: offered  9560, delivered 1760, residual  7800, 3 configs
	// window  6: offered  7800, delivered 1440, residual  6360, 4 configs
	// window  7: offered  6360, delivered 1200, residual  5160, 4 configs
	// window  8: offered  5160, delivered  760, residual  4400, 4 configs
	// window  9: offered  4400, delivered  640, residual  3760, 3 configs
	// window 10: offered  3760, delivered  860, residual  2900, 3 configs
	// window 11: offered  2900, delivered  900, residual  2000, 5 configs
	// window 12: offered  2000, delivered  240, residual  1760, 2 configs
	// window 13: offered  1760, delivered  620, residual  1140, 3 configs
	// window 14: offered  1140, delivered  340, residual   800, 4 configs
	// window 15: offered   800, delivered  240, residual   560, 4 configs
	// window 16: offered   560, delivered  420, residual   140, 3 configs
	// window 17: offered   140, delivered  140, residual     0, 4 configs
	// burst drained in 17 windows (6800 slots)
}

// ExampleScheduleOnline_arrivals schedules flows that arrive over time
// (the paper's §9 future-work setting): each epoch is planned from the
// backlog known at its start.
func ExampleScheduleOnline_arrivals() {
	const nodes, window, spread = 16, 400, 6
	g := octopus.Complete(nodes)
	rng := rand.New(rand.NewSource(13))
	load, err := octopus.Synthetic(g, octopus.DefaultSyntheticParams(nodes, 2*window), rng)
	if err != nil {
		log.Fatal(err)
	}
	arrivals := make([]octopus.Arrival, len(load.Flows))
	for i, f := range load.Flows {
		arrivals[i] = octopus.Arrival{Flow: f, At: rng.Intn(spread) * window}
	}
	res, err := octopus.ScheduleOnline(g, arrivals, octopus.PipelineConfig{
		Core: octopus.Options{Window: window, Delta: 20},
	}, spread+6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d flows, %d packets arriving over %d epochs\n", len(arrivals), load.TotalPackets(), spread)
	fmt.Printf("%.1f%% delivered in %d epochs, mean completion %.1f epochs\n",
		100*res.DeliveredFraction(), len(res.Epochs), res.MeanCompletionEpochs(arrivals, window))
	// Output:
	// 32 flows, 12800 packets arriving over 6 epochs
	// 98.3% delivered in 12 epochs, mean completion 4.4 epochs
}

// ExampleSynthetic generates the paper's synthetic workload.
func ExampleSynthetic() {
	g := octopus.Complete(10)
	rng := rand.New(rand.NewSource(1))
	load, err := octopus.Synthetic(g, octopus.DefaultSyntheticParams(10, 100), rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flows per port: %d, packets per port: %d\n",
		len(load.Flows)/10, load.TotalPackets()/10)
	// Output:
	// flows per port: 2, packets per port: 100
}

// dcNodes and dcWindow size the data-center comparison of
// ExampleRunAlgorithm.
const dcNodes, dcWindow = 12, 400

// dcOutcomes runs every registered algorithm on one fabric and five
// traffic mixes: the synthetic workload and the trace-like stand-ins for
// the Facebook and Microsoft traces. out[a][m] is algorithm algos[a] on
// mix mixes[m].
func dcOutcomes() (algos, mixes []string, out [][]*octopus.AlgoOutcome, err error) {
	g := octopus.Complete(dcNodes)
	load, err := octopus.Synthetic(g, octopus.DefaultSyntheticParams(dcNodes, dcWindow), rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, nil, nil, err
	}
	mixes, loads := []string{"synthetic"}, []*octopus.Load{load}
	for _, k := range []octopus.TraceKind{octopus.FBHadoop, octopus.FBWeb, octopus.FBDatabase, octopus.MSHeatmap} {
		load, err := octopus.TraceLike(g, k, dcWindow, rand.New(rand.NewSource(7)))
		if err != nil {
			return nil, nil, nil, err
		}
		mixes, loads = append(mixes, k.String()), append(loads, load)
	}
	algos = octopus.AlgorithmNames()
	out = make([][]*octopus.AlgoOutcome, len(algos))
	for a, name := range algos {
		out[a] = make([]*octopus.AlgoOutcome, len(loads))
		for m, load := range loads {
			out[a][m], err = octopus.RunAlgorithm(name, g, load, octopus.AlgoParams{Window: dcWindow, Delta: 20, Seed: 7})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s on %s: %w", name, mixes[m], err)
			}
		}
	}
	return algos, mixes, out, nil
}

// ExampleRunAlgorithm compares every registered algorithm — Octopus and
// its variants, the Eclipse and RotorNet baselines and the UB bound — on
// five data-center traffic mixes. Each cell reads delivered % / link
// utilization %.
func ExampleRunAlgorithm() {
	algos, mixes, out, err := dcOutcomes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s", "algorithm")
	for _, mix := range mixes {
		fmt.Printf("%12s", mix)
	}
	fmt.Println()
	for a, name := range algos {
		fmt.Printf("%-18s", name)
		for _, o := range out[a] {
			fmt.Printf("%12s", fmt.Sprintf("%.1f/%.1f", 100*o.DeliveredFraction(), 100*o.Utilization()))
		}
		fmt.Println()
	}
	// Output:
	// algorithm            synthetic        FB-1        FB-2        FB-3          MS
	// octopus             35.0/100.0   41.2/66.2   25.3/63.1   53.9/92.2   49.8/39.7
	// octopus-g            30.8/98.1   39.5/66.0   25.3/66.8   53.9/92.2   49.8/39.7
	// octopus-b           35.0/100.0   41.2/66.2   25.3/63.1   53.9/92.2   49.8/39.7
	// octopus-e           35.0/100.0   41.3/66.6   25.3/66.3   53.9/92.2   49.8/39.7
	// chained             32.9/100.0   42.7/57.3   25.7/63.5   91.9/65.2   51.0/32.6
	// octopus-plus         43.3/76.3   46.5/48.5   25.3/63.1   18.8/86.9   52.9/29.9
	// octopus-random      35.0/100.0   41.2/66.2   25.3/63.1   53.9/92.2   49.8/39.7
	// octopus-sharded     35.0/100.0   41.2/66.2   25.3/63.1   53.9/92.2   49.8/39.7
	// eclipse-based        17.9/75.6   25.0/54.5   23.7/51.3   12.8/33.0   28.0/21.8
	// eclipse-pp           29.2/40.9   46.1/64.5   25.7/20.8    12.8/4.7   32.6/11.0
	// rotornet              6.7/18.5     2.2/4.7     0.0/7.5     0.0/0.0     1.9/3.2
	// ub                   34.6/98.8   46.9/74.1   25.7/63.2   91.1/91.3   50.3/38.3
}

// TestRunAlgorithmUtilizationAtMostOne holds every algorithm of
// ExampleRunAlgorithm to its definition: packet-hops cannot outnumber
// the link-slots that were active.
func TestRunAlgorithmUtilizationAtMostOne(t *testing.T) {
	algos, mixes, out, err := dcOutcomes()
	if err != nil {
		t.Fatal(err)
	}
	for a, name := range algos {
		for m, o := range out[a] {
			if u := o.Utilization(); u > 1 {
				t.Errorf("%s on %s: utilization %.4f above 1", name, mixes[m], u)
			}
		}
	}
}
