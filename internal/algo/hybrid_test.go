package algo

import (
	"math/rand"
	"testing"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

func TestHybridImprovesOnCircuitOnly(t *testing.T) {
	g, load := synthetic(t, 1, 10, 300)
	p := Params{Window: 300, Delta: 10}
	circuitOnly, err := hybridSchedule(g, load.Clone(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := hybridSchedule(g, load.Clone(), p, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if circuitOnly.PacketNetHops != 0 {
		t.Fatal("zero-rate packet network served packets")
	}
	if hybrid.Delivered <= circuitOnly.Delivered {
		t.Fatalf("hybrid (%d) not above circuit-only (%d)", hybrid.Delivered, circuitOnly.Delivered)
	}
	if hybrid.Delivered > hybrid.Total {
		t.Fatal("delivered more than offered")
	}
}

func TestHybridBudgets(t *testing.T) {
	// Packet network budget = rate * window per port; one flow of 100
	// packets with rate 0.1 and window 200 -> 20 packets absorbed.
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 100, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	res, err := hybridSchedule(g, load, Params{Window: 200, Delta: 10}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketNetHops != 20 {
		t.Fatalf("PacketNetHops = %d, want 20", res.PacketNetHops)
	}
	// The remaining 80 fit easily in the circuit window.
	if res.Delivered != 100 {
		t.Fatalf("Delivered = %d, want 100", res.Delivered)
	}
}

func TestHybridSmallFlowsFirst(t *testing.T) {
	// Two flows share a source port; only the small one fits the packet
	// budget and must be chosen first.
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 1000, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		{ID: 2, Size: 5, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 2}}},
	}}
	res, err := hybridSchedule(g, load, Params{Window: 100, Delta: 10}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Budget = 10 per port: flow 2 (size 5) fully absorbed, then 5 more of
	// flow 1.
	if res.PacketNetHops != 10 {
		t.Fatalf("PacketNetHops = %d, want 10", res.PacketNetHops)
	}
}

func TestHybridAbsorbsEverything(t *testing.T) {
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 5, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	res, err := hybridSchedule(g, load, Params{Window: 100, Delta: 10}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule != nil || res.Plan != nil {
		t.Fatal("circuit scheduler ran for fully absorbed load")
	}
	if res.Delivered != 5 || res.DeliveredFraction() != 1 {
		t.Fatalf("Delivered = %d", res.Delivered)
	}
}

func TestHybridRejectsNegativeRate(t *testing.T) {
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 5, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	if _, err := hybridSchedule(g, load, Params{Window: 100, Delta: 10}, -1); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestMakespan(t *testing.T) {
	g, load := synthetic(t, 2, 8, 60)
	w, res, err := Makespan(g, load, core.Options{Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Pending != 0 {
		t.Fatalf("makespan result incomplete: %+v", res)
	}
	if res.Schedule.Cost() > w {
		t.Fatalf("schedule cost %d exceeds makespan %d", res.Schedule.Cost(), w)
	}
	// Minimality: one slot less must be infeasible.
	o := core.Options{Delta: 5, Window: w - 1}
	s, err := core.New(g, load, o)
	if err != nil {
		t.Fatal(err)
	}
	shorter, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if shorter.Pending == 0 {
		t.Fatalf("window %d also fully serves; makespan %d not minimal", w-1, w)
	}
}

func TestMakespanSingleFlow(t *testing.T) {
	// One 1-hop flow of s packets with delay Δ: makespan is exactly s+Δ.
	g := graph.Complete(2)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 17, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	w, _, err := Makespan(g, load, core.Options{Delta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w != 20 {
		t.Fatalf("makespan = %d, want 20", w)
	}
}

func TestMakespanEmptyLoad(t *testing.T) {
	g := graph.Complete(2)
	if _, _, err := Makespan(g, &traffic.Load{}, core.Options{Delta: 1}); err == nil {
		t.Fatal("empty load accepted")
	}
}

// TestCircuitScheduleValidates audits the circuit-side schedule with the
// independent validator: it must be feasible for the residual load, with
// the plan's claimed metrics matching the replay.
func TestCircuitScheduleValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		inst = inst.SingleRoute()
		offered := inst.Load.Clone()
		res, err := hybridSchedule(inst.G, offered, Params{Window: inst.Window, Delta: inst.Delta}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule == nil {
			continue // packet network absorbed everything
		}
		if res.Load == offered {
			t.Fatal("circuit result without residual load")
		}
		_, err = verify.Schedule(inst.G, res.Load, res.Schedule, verify.Options{
			Window: inst.Window,
			Claim: &verify.Claim{
				Delivered: res.Plan.Delivered,
				Hops:      res.Plan.Hops,
				Psi:       res.Plan.Psi,
			},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestMakespanScheduleValidates checks the minimal-window result against
// the validator: full delivery within exactly the returned window.
func TestMakespanScheduleValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		inst := verify.RandomTinyInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		w, res, err := Makespan(inst.G, inst.Load, core.Options{Delta: inst.Delta})
		if err != nil {
			t.Fatal(err)
		}
		if res.Pending != 0 {
			t.Fatalf("trial %d: makespan result leaves %d pending", trial, res.Pending)
		}
		rep, err := verify.Schedule(inst.G, inst.Load, res.Schedule, verify.Options{
			Window: w,
			Claim:  &verify.Claim{Delivered: res.Delivered, Hops: res.Hops, Psi: res.Psi},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rep.Delivered != inst.Load.TotalPackets() {
			t.Fatalf("trial %d: delivered %d of %d within makespan window %d",
				trial, rep.Delivered, inst.Load.TotalPackets(), w)
		}
	}
}
