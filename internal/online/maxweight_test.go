package online

import (
	"math/rand"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

func TestMaxWeightAdaptiveSingleFlow(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 20, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   0,
	}}
	res, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 100, Delta: 5, Hold: 10})
	if err != nil {
		t.Fatal(err)
	}
	// One reconfiguration (the matching never changes), then 2 holds.
	if res.Delivered != 20 {
		t.Fatalf("delivered %d, want 20", res.Delivered)
	}
	if res.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", res.Reconfigs)
	}
}

func TestMaxWeightAdaptiveMultiHop(t *testing.T) {
	g := graph.Complete(4)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 10, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
		At:   0,
	}}
	res, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 200, Delta: 5, Hold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 || res.Hops != 20 {
		t.Fatalf("delivered=%d hops=%d, want 10, 20", res.Delivered, res.Hops)
	}
}

func TestMaxWeightAdaptiveNoChainWithinHold(t *testing.T) {
	// A 2-hop flow whose both links could be active at once: at most one
	// hop per hold, so delivery needs two holds.
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 5, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
		At:   0,
	}}
	// Horizon fits Δ + one hold only.
	res, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 15, Delta: 5, Hold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Hops != 5 {
		t.Fatalf("delivered=%d hops=%d, want 0, 5", res.Delivered, res.Hops)
	}
}

func TestMaxWeightHysteresisReducesReconfigs(t *testing.T) {
	g := graph.Complete(8)
	rng := rand.New(rand.NewSource(5))
	load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(8, 400), rng)
	if err != nil {
		t.Fatal(err)
	}
	var arr []Arrival
	for _, f := range load.Flows {
		arr = append(arr, Arrival{Flow: f, At: 0})
	}
	eager, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 800, Delta: 10, Hold: 20})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 800, Delta: 10, Hold: 20, Hysteresis64: 96})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Reconfigs >= eager.Reconfigs {
		t.Fatalf("hysteresis did not reduce reconfigs: %d vs %d", lazy.Reconfigs, eager.Reconfigs)
	}
	if lazy.Delivered == 0 || eager.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestOctopusEpochsBeatMaxWeightOnKnownLoad(t *testing.T) {
	// The paper's setting: the load is known up front. Window planning
	// (Octopus epochs) should beat the myopic queue-state policy.
	g := graph.Complete(10)
	rng := rand.New(rand.NewSource(7))
	load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(10, 500), rng)
	if err != nil {
		t.Fatal(err)
	}
	var arr []Arrival
	for _, f := range load.Flows {
		arr = append(arr, Arrival{Flow: f, At: 0})
	}
	oct, err := Run(g, arr, window(500, 20), 1)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 500, Delta: 20, Hold: 40})
	if err != nil {
		t.Fatal(err)
	}
	if oct.Delivered <= mw.Delivered {
		t.Fatalf("Octopus epoch (%d) not above MaxWeight (%d)", oct.Delivered, mw.Delivered)
	}
}

func TestMaxWeightAdaptiveValidation(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 1, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	bad := []AdaptiveOptions{
		{Horizon: 0, Hold: 5},
		{Horizon: 100, Hold: -1},
		{Horizon: 100, Hold: 5, Delta: -1},
		{Horizon: 100, Hold: 5, Hysteresis64: -2},
	}
	for i, opt := range bad {
		if _, err := MaxWeightAdaptive(g, arr, opt); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	neg := arr
	neg[0].At = -1
	if _, err := MaxWeightAdaptive(g, neg, AdaptiveOptions{Horizon: 10, Hold: 2}); err == nil {
		t.Fatal("negative arrival accepted")
	}
}

func TestMaxWeightAdaptiveHoldDefault(t *testing.T) {
	// Hold 0 selects the library default of 10·Δ (10 when Δ is 0): the run
	// must behave exactly like an explicit hold of that length.
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 20, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   0,
	}}
	for _, tc := range []struct{ delta, want int }{{5, 50}, {0, 10}} {
		def, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 100, Delta: tc.delta})
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 100, Delta: tc.delta, Hold: tc.want})
		if err != nil {
			t.Fatal(err)
		}
		if *def != *explicit {
			t.Fatalf("delta %d: default-hold run %+v != explicit hold %d run %+v", tc.delta, def, tc.want, explicit)
		}
	}
}

func TestMaxWeightAdaptiveIdlesUntilArrival(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 5, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   50,
	}}
	res, err := MaxWeightAdaptive(g, arr, AdaptiveOptions{Horizon: 100, Delta: 5, Hold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 5 {
		t.Fatalf("delivered %d, want 5", res.Delivered)
	}
	// Nothing before slot 50: the run must have idled, not spun.
	if res.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", res.Reconfigs)
	}
}
