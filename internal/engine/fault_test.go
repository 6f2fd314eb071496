package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/core"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// window is the failure-free configuration of a run with epochs of w slots.
func window(w, d int) Config {
	return Config{Core: core.Options{Window: w, Delta: d}}
}

// faulty is cfg as mhsim -faults runs it: tr replayed with epoch-boundary
// reactive repair and every plan audited.
func faulty(cfg Config, tr *fault.Trace) Config {
	cfg.Trace, cfg.Repair, cfg.Reactive, cfg.Audit = tr, true, true, true
	return cfg
}

// TestEmptyTraceEquivalence is the satellite property: with an empty (or
// nil) fault trace, the fault-tolerant controller must produce bit-for-bit
// the same run as the fault-free controller — same per-epoch stats, same
// delivery, same completions.
func TestEmptyTraceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		var arr []Arrival
		for i, f := range inst.Load.Flows {
			f.Routes = f.Routes[:1]
			arr = append(arr, Arrival{Flow: f, At: i * inst.Window / 2})
		}
		cfg := window(inst.Window, inst.Delta)
		want, err := Run(inst.G, arr, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, tr := range map[string]*fault.Trace{"nil": nil, "empty": {}} {
			got, err := Run(inst.G, arr, faulty(cfg, tr), 0)
			if err != nil {
				t.Fatalf("trial %d (%s trace): %v", trial, name, err)
			}
			if got.Totals != want.Totals || got.Dropped != 0 {
				t.Fatalf("trial %d (%s trace): totals %+v, want %+v with nothing dropped",
					trial, name, got.Totals, want.Totals)
			}
			if !reflect.DeepEqual(got.Completion, want.Completion) {
				t.Fatalf("trial %d (%s trace): completions diverge:\n%v\n%v", trial, name, got.Completion, want.Completion)
			}
			if len(got.Epochs) != len(want.Epochs) {
				t.Fatalf("trial %d (%s trace): %d epochs vs %d", trial, name, len(got.Epochs), len(want.Epochs))
			}
			for i := range got.Epochs {
				if !reflect.DeepEqual(got.Epochs[i], want.Epochs[i]) {
					t.Fatalf("trial %d (%s trace) epoch %d stats diverge:\n%+v\n%+v",
						trial, name, i, got.Epochs[i], want.Epochs[i])
				}
				if got.Epochs[i].Rerouted != 0 || got.Epochs[i].Stranded != 0 || got.Epochs[i].Dropped != 0 {
					t.Fatalf("trial %d (%s trace) epoch %d reports degradation without faults: %+v",
						trial, name, i, got.Epochs[i])
				}
			}
		}
	}
}

// TestRerouteAroundFailedLink kills the only route of a flow; the controller
// must repair it onto a surviving path and still deliver everything.
func TestRerouteAroundFailedLink(t *testing.T) {
	g := graph.Complete(4)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 8, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   0,
	}}
	tr := &fault.Trace{Events: []fault.Event{{At: 0, Kind: fault.LinkDown, From: 0, To: 1}}}
	res, err := Run(g, arr, faulty(window(200, 5), tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 8 || res.Dropped != 0 {
		t.Fatalf("delivered %d dropped %d, want 8/0", res.Delivered, res.Dropped)
	}
	if res.Epochs[0].Rerouted != 8 {
		t.Fatalf("epoch 0 rerouted %d, want 8", res.Epochs[0].Rerouted)
	}
	if res.Epochs[0].Stranded != 0 {
		t.Fatalf("epoch 0 stranded %d, want 0 (packets were still at their source)", res.Epochs[0].Stranded)
	}
	if res.Epochs[0].FailedLinks != 1 {
		t.Fatalf("epoch 0 failed links %d, want 1", res.Epochs[0].FailedLinks)
	}
	if _, ok := res.Completion[1]; !ok {
		t.Fatal("rerouted flow never completed")
	}
	// Everything was rerouted, so nothing is lost against the failure-free
	// run of the same arrivals.
	ref, err := Run(g, arr, window(200, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Delivered != 8 || res.Degradation(ref) != 0 {
		t.Fatalf("reference delivered %d, degradation %f; want 8 and 0", ref.Delivered, res.Degradation(ref))
	}
}

// TestStrandedInFlightRequeue forces packets one hop into the network, then
// kills their onward link at the next boundary: they must be requeued from
// their current position and rerouted, not silently delivered or lost.
func TestStrandedInFlightRequeue(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		// 2-hop route; the window fits exactly one configuration, so epoch
		// 0 moves the packets to node 1 and no further.
		Flow: traffic.Flow{ID: 9, Size: 5, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
		At:   0,
	}}
	tr := &fault.Trace{Events: []fault.Event{{At: 12, Kind: fault.LinkDown, From: 1, To: 2}}}
	res, err := Run(g, arr, faulty(window(12, 5), tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 5 || res.Dropped != 0 {
		t.Fatalf("delivered %d dropped %d, want 5/0", res.Delivered, res.Dropped)
	}
	var rerouted, stranded int
	for _, ep := range res.Epochs {
		rerouted += ep.Rerouted
		stranded += ep.Stranded
	}
	if rerouted != 5 || stranded != 5 {
		t.Fatalf("rerouted %d stranded %d, want 5/5", rerouted, stranded)
	}
}

// TestDropUnreachable isolates a destination node; the flow to it is
// dropped with accounting while the rest of the traffic still delivers.
func TestDropUnreachable(t *testing.T) {
	g := graph.Complete(4)
	arr := []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 6, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 3}}}, At: 0},
		{Flow: traffic.Flow{ID: 2, Size: 4, Src: 1, Dst: 2, Routes: []traffic.Route{{1, 2}}}, At: 0},
	}
	tr := &fault.Trace{Events: []fault.Event{{At: 0, Kind: fault.NodeDown, Node: 3}}}
	res, err := Run(g, arr, faulty(window(100, 5), tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 6 {
		t.Fatalf("dropped %d, want 6", res.Dropped)
	}
	if res.Delivered != 4 {
		t.Fatalf("delivered %d, want 4", res.Delivered)
	}
	if _, ok := res.Completion[1]; ok {
		t.Fatal("dropped flow marked completed")
	}
	if _, ok := res.Completion[2]; !ok {
		t.Fatal("unaffected flow never completed")
	}
	if res.Epochs[0].FailedNodes != 1 {
		t.Fatalf("failed nodes %d, want 1", res.Epochs[0].FailedNodes)
	}
	ref, err := Run(g, arr, window(100, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Degradation(ref); got != 0.6 {
		t.Fatalf("degradation %f, want 0.6 (6 of the reference's 10 packets dropped)", got)
	}
}

// TestRecoveryRestoresRoutes takes a link down and back up: while down the
// affected flow detours, afterwards new traffic uses the recovered link.
func TestRecoveryRestoresRoutes(t *testing.T) {
	g := graph.Ring(4) // only 0->1->2->3->0: no detours exist
	arr := []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 3, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}}, At: 0},
		{Flow: traffic.Flow{ID: 2, Size: 3, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}}, At: 30},
	}
	// Link 0->1 is down during epoch 0 and recovers at the epoch-1
	// boundary. On a ring with no alternative path the first flow has no
	// surviving route... except the long way around is also severed by the
	// same link; so it must be dropped. The second flow arrives after
	// recovery and delivers.
	tr := &fault.Trace{Events: []fault.Event{
		{At: 0, Kind: fault.LinkDown, From: 0, To: 1},
		{At: 30, Kind: fault.LinkUp, From: 0, To: 1},
	}}
	res, err := Run(g, arr, faulty(window(30, 2), tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 3 {
		t.Fatalf("dropped %d, want 3 (no surviving route while down)", res.Dropped)
	}
	if res.Delivered != 3 {
		t.Fatalf("delivered %d, want 3 (arrived after recovery)", res.Delivered)
	}
}

// TestDeltaJitterIdlesEpoch gives epoch 0 a jitter so large no
// configuration fits: the epoch must idle gracefully and the traffic
// deliver afterwards.
func TestDeltaJitterIdlesEpoch(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 4, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   0,
	}}
	tr := &fault.Trace{DeltaJitter: []int{1000}}
	res, err := Run(g, arr, faulty(window(50, 5), tr), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Offered != 0 || res.Epochs[0].Delivered != 0 || res.Epochs[0].Backlog != 4 {
		t.Fatalf("epoch 0 should idle under jitter: %+v", res.Epochs[0])
	}
	if res.Delivered != 4 {
		t.Fatalf("delivered %d, want 4", res.Delivered)
	}
}

// randomTrace builds a valid random failure trace over g: paired down/up
// events on random links and nodes plus bounded jitter.
func randomTrace(g *graph.Digraph, rng *rand.Rand, horizon int) *fault.Trace {
	tr := &fault.Trace{}
	edges := g.Edges()
	for i := 0; i < 1+rng.Intn(4); i++ {
		e := edges[rng.Intn(len(edges))]
		at := rng.Intn(horizon)
		tr.Events = append(tr.Events, fault.Event{At: at, Kind: fault.LinkDown, From: e.From, To: e.To})
		if rng.Intn(2) == 0 {
			tr.Events = append(tr.Events, fault.Event{At: at + 1 + rng.Intn(horizon), Kind: fault.LinkUp, From: e.From, To: e.To})
		}
	}
	if rng.Intn(2) == 0 {
		v := rng.Intn(g.N())
		at := rng.Intn(horizon)
		tr.Events = append(tr.Events, fault.Event{At: at, Kind: fault.NodeDown, Node: v})
		tr.Events = append(tr.Events, fault.Event{At: at + 1 + rng.Intn(horizon), Kind: fault.NodeUp, Node: v})
	}
	for i := 0; i < rng.Intn(3); i++ {
		tr.DeltaJitter = append(tr.DeltaJitter, rng.Intn(5))
	}
	return tr
}

// TestFaultyRunsDeterministicAndAudited fuzzes random instances with random
// failure traces: runs must be deterministic given (instance, trace), every
// packet must be either delivered or deliberately dropped, and every kept
// plan must re-verify against its epoch's surviving fabric.
func TestFaultyRunsDeterministicAndAudited(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		var arr []Arrival
		for i, f := range inst.Load.Flows {
			f.Routes = f.Routes[:1]
			arr = append(arr, Arrival{Flow: f, At: i * inst.Window / 2})
		}
		tr := randomTrace(inst.G, rng, 3*inst.Window)
		cfg := faulty(window(inst.Window, inst.Delta), tr)
		cfg.KeepPlans = true
		run := func() *RunResult {
			res, err := Run(inst.G, arr, cfg, 0)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Epochs, b.Epochs) || a.Totals != b.Totals {
			t.Fatalf("trial %d: nondeterministic fault run", trial)
		}
		if a.Delivered+a.Dropped > a.Submitted {
			t.Fatalf("trial %d: delivered %d + dropped %d exceeds total %d", trial, a.Delivered, a.Dropped, a.Submitted)
		}
		for _, ep := range a.Epochs {
			if ep.Plan == nil {
				continue
			}
			// Re-audit independently, from the intact fabric and the
			// trace: the fabric that survives at the epoch's first slot.
			cur := tr.Cursor()
			cur.AdvanceTo(ep.Epoch * inst.Window)
			rep, err := verify.Schedule(cur.SurvivingOf(inst.G), ep.Load, ep.Plan.Schedule, verify.Options{
				Window: inst.Window,
			})
			if err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, ep.Epoch, err)
			}
			if rep.Delivered != ep.Plan.Delivered {
				t.Fatalf("trial %d epoch %d: replay delivered %d, plan claims %d",
					trial, ep.Epoch, rep.Delivered, ep.Plan.Delivered)
			}
		}
	}
}

// TestMidEpochFailureDeparture pins a known departure of the epoch engine
// from the slot-precise fault model (DESIGN §9): faults are read at epoch
// boundaries only, so a link that dies mid-epoch still carries the whole
// epoch's plan, and Audit, which checks the plan against the boundary
// snapshot, passes it. The simulator's fault-aware replay of the same plan
// loses the link at its failure slot.
func TestMidEpochFailureDeparture(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	tr := &fault.Trace{Events: []fault.Event{{At: 10, Kind: fault.LinkDown, From: 0, To: 1}}}
	flow := traffic.Flow{ID: 0, Size: 100, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}}
	cfg := faulty(window(100, 0), tr)
	cfg.KeepPlans = true
	res, err := Run(g, []Arrival{{Flow: flow}}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 1 || res.Epochs[0].Delivered != 100 {
		t.Fatalf("epochs %+v, want epoch 0 credited with all 100 packets", res.Epochs)
	}
	sim, err := simulate.Run(g, res.Epochs[0].Load, res.Epochs[0].Plan.Schedule, simulate.Options{Window: 100, Faults: tr})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != 10 || sim.FailedLinkSlots != 90 {
		t.Fatalf("replay delivered %d with %d failed link-slots, want 10 and 90", sim.Delivered, sim.FailedLinkSlots)
	}
}
