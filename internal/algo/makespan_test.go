package algo

import (
	"math/rand"
	"testing"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

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
