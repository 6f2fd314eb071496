package octopus_test

import (
	"fmt"
	"log"
	"math/rand"

	"octopus"
)

// ExampleSchedule plans and measures a small MHS instance end to end.
func ExampleSchedule() {
	// A 3-hop relay fabric: 0 -> 1 -> 2, plus a direct 0 -> 2 link.
	g := octopus.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	load := &octopus.Load{Flows: []octopus.Flow{
		{ID: 1, Size: 40, Src: 0, Dst: 2, Routes: []octopus.Route{{0, 1, 2}}},
		{ID: 2, Size: 40, Src: 0, Dst: 2, Routes: []octopus.Route{{0, 2}}},
	}}
	res, err := octopus.Schedule(g, load, octopus.Options{Window: 200, Delta: 5})
	if err != nil {
		log.Fatal(err)
	}
	meas, err := octopus.Measure(g, load, res.Schedule, octopus.SimOptions{Window: 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered %d of %d packets\n", meas.Delivered, meas.TotalPackets)
	// Output:
	// delivered 80 of 80 packets
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
	// Output:
	// makespan: 30 slots (25 packets + one reconfiguration)
}

// ExampleScheduleOnline drains a burst across scheduling windows.
func ExampleScheduleOnline() {
	g := octopus.Complete(2)
	burst := []octopus.Arrival{{
		Flow: octopus.Flow{ID: 1, Size: 100, Src: 0, Dst: 1, Routes: []octopus.Route{{0, 1}}},
		At:   0,
	}}
	res, err := octopus.ScheduleOnline(g, burst, octopus.PipelineConfig{
		Core: octopus.Options{Window: 45, Delta: 5},
	}, 10)
	if err != nil {
		log.Fatal(err)
	}
	for i, w := range res.Epochs {
		fmt.Printf("window %d: delivered %d, residual %d\n", i+1, w.Delivered, w.Backlog)
	}
	// Output:
	// window 1: delivered 40, residual 60
	// window 2: delivered 40, residual 20
	// window 3: delivered 20, residual 0
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
