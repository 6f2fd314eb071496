package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// TestRedundantFaultyIdentityWhenKOne is the k=1 bit-identity property:
// an empty redundancy map must be indistinguishable from none on arbitrary
// instances and failure traces — same struct, bit for bit.
func TestRedundantFaultyIdentityWhenKOne(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		var arr []Arrival
		for i, f := range inst.Load.Flows {
			f.Routes = f.Routes[:1]
			arr = append(arr, Arrival{Flow: f, At: i * inst.Window / 3})
		}
		var tr *fault.Trace
		if trial%2 == 0 && len(arr) > 0 {
			// Break the first flow's first hop for a while.
			r := arr[0].Flow.Routes[0]
			tr = &fault.Trace{Events: []fault.Event{
				{At: 0, Kind: fault.LinkDown, From: r[0], To: r[1]},
				{At: 2 * inst.Window, Kind: fault.LinkUp, From: r[0], To: r[1]},
			}}
		}
		cfg := faulty(window(inst.Window, inst.Delta), tr)
		want, err := Run(inst.G, arr, cfg, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cfg.Red = &traffic.Redundancy{}
		got, err := Run(inst.G, arr, cfg, 0)
		if err != nil {
			t.Fatalf("trial %d (empty map): %v", trial, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: k=1 redundant run diverges from the run without a map:\n%+v\nvs\n%+v",
				trial, got, want)
		}
		if want.UniqueDelivered != want.Delivered || want.UniqueSubmitted != want.Submitted {
			t.Fatalf("trial %d: unique metrics do not mirror raw without redundancy: %+v", trial, want)
		}
	}
}

// TestRedundantCopySurvivesFailure kills the primary copy's route before
// anything moves, with reactive repair disabled: the group must survive
// purely through its proactive alternate, while the same flow without a
// copy is lost.
func TestRedundantCopySurvivesFailure(t *testing.T) {
	g := graph.Complete(4)
	tr := &fault.Trace{Events: []fault.Event{{At: 0, Kind: fault.LinkDown, From: 0, To: 3}}}
	cfg := faulty(window(100, 5), tr)
	cfg.Reactive = false
	cfg.Red = &traffic.Redundancy{Group: map[int]int{1: 1, 5: 1}}
	arr := []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 6, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 3}}}, At: 0},
		{Flow: traffic.Flow{ID: 5, Size: 6, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 3}}}, At: 0},
	}
	res, err := Run(g, arr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SurvivedRedundant != 6 || res.Dropped != 0 {
		t.Fatalf("survived %d dropped %d, want 6/0", res.SurvivedRedundant, res.Dropped)
	}
	if res.UniqueSubmitted != 6 || res.UniqueDelivered != 6 {
		t.Fatalf("unique %d/%d, want 6/6 (the copy carries the group)",
			res.UniqueDelivered, res.UniqueSubmitted)
	}
	if res.Delivered != 6 {
		t.Fatalf("raw delivered %d, want 6 (only the copy moves)", res.Delivered)
	}
	// Packet conservation over the whole run.
	if res.Delivered+res.Dropped+res.SurvivedRedundant != res.Submitted {
		t.Fatalf("packets not conserved: %+v", res)
	}

	// The same flow without a proactive copy, still without reactive
	// repair, is dropped outright even though the fabric has a detour.
	cfg.Red = nil
	bare, err := Run(g, arr[:1], cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Dropped != 6 || bare.Delivered != 0 {
		t.Fatalf("no-reactive bare flow: delivered %d dropped %d, want 0/6",
			bare.Delivered, bare.Dropped)
	}
}

// TestRedundantPerEpochUniqueDelivery checks the per-epoch deduplicated
// accounting: two live copies racing the same group count once per epoch.
func TestRedundantPerEpochUniqueDelivery(t *testing.T) {
	g := graph.Complete(4)
	cfg := faulty(window(60, 5), nil)
	cfg.Red = &traffic.Redundancy{Group: map[int]int{1: 1, 5: 1}}
	arr := []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 4, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 3}}}, At: 0},
		{Flow: traffic.Flow{ID: 5, Size: 4, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 3}}}, At: 0},
	}
	res, err := Run(g, arr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueSubmitted != 4 || res.UniqueDelivered != 4 {
		t.Fatalf("unique %d/%d, want 4/4", res.UniqueDelivered, res.UniqueSubmitted)
	}
	if res.Delivered != 8 {
		t.Fatalf("raw delivered %d, want 8 (both copies drain failure-free)", res.Delivered)
	}
	var epochUnique, epochRaw int
	for _, ep := range res.Epochs {
		epochUnique += ep.UniqueDelivered
		epochRaw += ep.Delivered
		if ep.UniqueDelivered > ep.Delivered {
			t.Fatalf("epoch %d: unique %d exceeds raw %d", ep.Epoch, ep.UniqueDelivered, ep.Delivered)
		}
	}
	if epochUnique != res.UniqueDelivered {
		t.Fatalf("per-epoch unique sums to %d, run total %d", epochUnique, res.UniqueDelivered)
	}
	if epochRaw != res.Delivered {
		t.Fatalf("per-epoch raw sums to %d, run total %d", epochRaw, res.Delivered)
	}
	if res.Psi <= 0 {
		t.Fatalf("Psi = %d, want positive (duplicates included)", res.Psi)
	}
}

// TestFaultEventsBeyondHorizon: a trace whose every event lies past the end
// of the run must replay bit-identically to a failure-free run.
func TestFaultEventsBeyondHorizon(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 5, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 2}}},
		At:   0,
	}}
	want, err := Run(g, arr, faulty(window(50, 5), nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &fault.Trace{Events: []fault.Event{
		{At: 1 << 20, Kind: fault.LinkDown, From: 0, To: 2},
		{At: 1<<20 + 1, Kind: fault.NodeDown, Node: 2},
	}}
	got, err := Run(g, arr, faulty(window(50, 5), tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("events beyond the horizon changed the run:\n%+v\nvs\n%+v", got, want)
	}
}

// TestRequeueThenDrop advances packets one hop, then takes their
// destination down for good: the in-flight packets must be requeued and
// then dropped from their intermediate position — never silently delivered
// and never left in limbo.
func TestRequeueThenDrop(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		// 2-hop route; the window fits one configuration, so epoch 0 moves
		// the packets to node 1 and no further.
		Flow: traffic.Flow{ID: 9, Size: 5, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
		At:   0,
	}}
	tr := &fault.Trace{Events: []fault.Event{{At: 12, Kind: fault.NodeDown, Node: 2}}}
	res, err := Run(g, arr, faulty(window(12, 5), tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 5 || res.Delivered != 0 {
		t.Fatalf("delivered %d dropped %d, want 0/5", res.Delivered, res.Dropped)
	}
	if _, ok := res.Completion[9]; ok {
		t.Fatal("dropped flow marked completed")
	}
	// The drop happened at the boundary after the packets moved in-network.
	dropEpoch := -1
	for _, ep := range res.Epochs {
		if ep.Dropped > 0 {
			dropEpoch = ep.Epoch
		}
	}
	if dropEpoch < 1 {
		t.Fatalf("drop recorded at epoch %d, want a later boundary (packets moved first)", dropEpoch)
	}
}
