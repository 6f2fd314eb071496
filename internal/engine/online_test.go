package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

func TestSingleFlowCompletesFirstEpoch(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 7, Size: 10, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   0,
	}}
	res, err := Run(g, arr, Config{Core: core.Options{Window: 100, Delta: 5}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 || res.Submitted != 10 {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Submitted)
	}
	if res.Completion[7] != 1 {
		t.Fatalf("completion = %v, want epoch 1", res.Completion)
	}
	if len(res.Epochs) != 1 {
		t.Fatalf("epochs = %+v", res.Epochs)
	}
}

func TestLateArrivalWaitsForItsEpoch(t *testing.T) {
	g := graph.Complete(3)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 5, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   150, // arrives during epoch 1, admitted at the epoch-2 boundary
	}}
	res, err := Run(g, arr, Config{Core: core.Options{Window: 100, Delta: 5}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[1] != 3 {
		t.Fatalf("completion = %v, want epoch 3 (admitted at slot 200)", res.Completion)
	}
	// Epochs 0 and 1 were idle.
	if res.Epochs[0].Offered != 0 || res.Epochs[1].Offered != 0 {
		t.Fatalf("expected idle leading epochs: %+v", res.Epochs)
	}
}

func TestOverloadDrainsAcrossEpochs(t *testing.T) {
	g := graph.Complete(8)
	rng := rand.New(rand.NewSource(3))
	p := traffic.DefaultSyntheticParams(8, 600) // 3x one epoch's capacity
	load, err := traffic.Synthetic(g, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	var arr []Arrival
	for _, f := range load.Flows {
		arr = append(arr, Arrival{Flow: f, At: (f.ID % 3) * 200})
	}
	res, err := Run(g, arr, Config{Core: core.Options{Window: 200, Delta: 10}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Submitted {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Submitted)
	}
	if len(res.Completion) != len(arr) {
		t.Fatalf("only %d of %d flows completed", len(res.Completion), len(arr))
	}
	// Epoch accounting: delivered + backlog = offered each epoch.
	for _, e := range res.Epochs {
		if e.Offered != e.Delivered+e.Backlog {
			t.Fatalf("epoch %d: %d != %d + %d", e.Epoch, e.Offered, e.Delivered, e.Backlog)
		}
	}
	if res.MeanCompletionEpochs(arr, 200) < 1 {
		t.Fatalf("mean completion %f < 1 epoch", res.MeanCompletionEpochs(arr, 200))
	}
}

func TestMaxEpochsCap(t *testing.T) {
	g := graph.Complete(4)
	arr := []Arrival{{
		Flow: traffic.Flow{ID: 1, Size: 1000, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		At:   0,
	}}
	res, err := Run(g, arr, Config{Core: core.Options{Window: 50, Delta: 10}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(res.Epochs))
	}
	if res.Delivered >= res.Submitted {
		t.Fatal("cap did not bite")
	}
	if _, done := res.Completion[1]; done {
		t.Fatal("incomplete flow marked completed")
	}
}

func TestOnlineValidation(t *testing.T) {
	g := graph.Complete(3)
	mk := func() Arrival {
		return Arrival{Flow: traffic.Flow{ID: 1, Size: 1, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}}}
	}
	if _, err := Run(g, []Arrival{mk()}, Config{}, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	neg := mk()
	neg.At = -5
	if _, err := Run(g, []Arrival{neg}, Config{Core: core.Options{Window: 10, Delta: 1}}, 0); err == nil {
		t.Fatal("negative arrival accepted")
	}
	if _, err := Run(g, []Arrival{mk(), mk()}, Config{Core: core.Options{Window: 10, Delta: 1}}, 0); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestOnlineEmptyArrivals(t *testing.T) {
	g := graph.Complete(3)
	res, err := Run(g, nil, Config{Core: core.Options{Window: 10, Delta: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 0 || res.Delivered != 0 || len(res.Epochs) != 0 {
		t.Fatalf("empty run produced %+v", res)
	}
	if res.MeanCompletionEpochs(nil, 10) != 0 {
		t.Fatal("mean completion of nothing nonzero")
	}
}

// TestMeanCompletionEpochs pins the metric's edge cases: a window larger
// than the whole run, flows that never complete (excluded rather than
// skewing the mean), and a run where nothing completes at all.
func TestMeanCompletionEpochs(t *testing.T) {
	g := graph.Complete(4)
	mk := func(id, size, at int) Arrival {
		return Arrival{
			Flow: traffic.Flow{ID: id, Size: size, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
			At:   at,
		}
	}

	// Window much larger than the run: everything is admitted at boundary 0,
	// fits in epoch 0, and completes one epoch after arrival. The flows use
	// disjoint links so neither waits for the other.
	second := Arrival{
		Flow: traffic.Flow{ID: 2, Size: 2, Src: 2, Dst: 3, Routes: []traffic.Route{{2, 3}}},
	}
	arr := []Arrival{mk(1, 3, 0), second}
	res, err := Run(g, arr, Config{Core: core.Options{Window: 1 << 20, Delta: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanCompletionEpochs(arr, 1<<20); got != 1 {
		t.Fatalf("huge-window mean = %f, want 1", got)
	}

	// A mid-epoch arrival waits for the next boundary, and the wait counts:
	// admitted at boundary 1, done at epoch 2 → two epochs, mean 1.5.
	late := arr
	late[1].At = 5
	res, err = Run(g, late, Config{Core: core.Options{Window: 1 << 20, Delta: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanCompletionEpochs(late, 1<<20); got != 1.5 {
		t.Fatalf("mid-epoch-arrival mean = %f, want 1.5", got)
	}

	// A flow too large to finish under MaxEpochs never enters Completion,
	// so the mean reflects only the flow that did complete.
	arr = []Arrival{mk(1, 1, 0), mk(2, 10000, 0)}
	res, err = Run(g, arr, Config{Core: core.Options{Window: 50, Delta: 5}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := res.Completion[2]; done {
		t.Fatal("oversized flow reported complete")
	}
	if got := res.MeanCompletionEpochs(arr, 50); got != 1 {
		t.Fatalf("mean over the completed flow = %f, want 1", got)
	}

	// Nothing completes: the mean degrades to zero instead of dividing by
	// zero, whether Completion is empty or the arrivals all missed it.
	arr = []Arrival{mk(1, 10000, 0)}
	res, err = Run(g, arr, Config{Core: core.Options{Window: 50, Delta: 5}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanCompletionEpochs(arr, 50); got != 0 {
		t.Fatalf("mean with no completions = %f, want 0", got)
	}
	other := []Arrival{mk(99, 1, 0)}
	full, err := Run(g, []Arrival{mk(1, 1, 0)}, Config{Core: core.Options{Window: 50, Delta: 5}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.MeanCompletionEpochs(other, 50); got != 0 {
		t.Fatalf("mean over unmatched arrivals = %f, want 0", got)
	}
}

// TestEpochPlansValidate audits every epoch's schedule with the independent
// validator: each epoch's plan must be feasible for the exact load it
// scheduled, with the plan's claimed metrics matching the replay.
func TestEpochPlansValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		var arr []Arrival
		for i, f := range inst.Load.Flows {
			f.Routes = f.Routes[:1]
			arr = append(arr, Arrival{Flow: f, At: i * inst.Window / 2})
		}
		res, err := Run(inst.G, arr, Config{
			Core:      core.Options{Window: inst.Window, Delta: inst.Delta},
			KeepPlans: true,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != res.Submitted {
			t.Fatalf("trial %d: online run left %d of %d packets undelivered",
				trial, res.Submitted-res.Delivered, res.Submitted)
		}
		audited := 0
		for _, ep := range res.Epochs {
			if ep.Plan == nil {
				if ep.Offered != 0 {
					t.Fatalf("trial %d epoch %d: offered %d packets but kept no plan", trial, ep.Epoch, ep.Offered)
				}
				continue
			}
			audited++
			_, err := verify.Schedule(inst.G, ep.Load, ep.Plan.Schedule, verify.Options{
				Window: inst.Window,
				Claim: &verify.Claim{
					Delivered: ep.Plan.Delivered,
					Hops:      ep.Plan.Hops,
					Psi:       ep.Plan.Psi,
				},
			})
			if err != nil {
				t.Fatalf("trial %d epoch %d: %v", trial, ep.Epoch, err)
			}
		}
		if audited == 0 {
			t.Fatalf("trial %d: no epochs audited", trial)
		}
	}
}

// TestBurstAtSlotZeroIsTheWindowLoop is the paper's §4 rolling-window
// workflow as a property of the one driver: with every flow arriving at
// slot 0, Run plans exactly what the loop written out below plans —
// schedule a window, export what it left with ResidualLoadMap, schedule
// that — window for window, down to the links of every configuration; and
// the burst drains with packets conserved in every window.
func TestBurstAtSlotZeroIsTheWindowLoop(t *testing.T) {
	g := graph.Complete(10)
	for seed := int64(1); seed <= 20; seed++ {
		for _, matcher := range []core.Matcher{core.MatcherExact, core.MatcherGreedy} {
			load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(10, 900), rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			opt := core.Options{Window: 300, Delta: 10, Matcher: matcher}
			arr := make([]Arrival, len(load.Flows))
			for i, f := range load.Flows {
				arr[i] = Arrival{Flow: f}
			}
			res, err := Run(g, arr, Config{Core: opt, KeepPlans: true}, 0)
			if err != nil {
				t.Fatal(err)
			}

			w := 0
			for cur := load; len(cur.Flows) > 0; w++ {
				s, err := core.New(g, cur, opt)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				next, _ := s.ResidualLoadMap()
				if w >= len(res.Epochs) {
					t.Fatalf("seed %d matcher %v: Run stopped after %d windows with %d packets left",
						seed, matcher, len(res.Epochs), cur.TotalPackets())
				}
				ep := res.Epochs[w]
				if ep.Offered != cur.TotalPackets() || ep.Delivered != plan.Delivered ||
					ep.Backlog != next.TotalPackets() || ep.Psi != plan.Psi {
					t.Fatalf("seed %d matcher %v window %d: offered %d delivered %d backlog %d psi %d, loop has %d / %d / %d / %d",
						seed, matcher, w, ep.Offered, ep.Delivered, ep.Backlog, ep.Psi,
						cur.TotalPackets(), plan.Delivered, next.TotalPackets(), plan.Psi)
				}
				if ep.Offered != ep.Delivered+ep.Backlog {
					t.Fatalf("seed %d matcher %v window %d: %d != %d + %d", seed, matcher, w, ep.Offered, ep.Delivered, ep.Backlog)
				}
				if !reflect.DeepEqual(ep.Plan.Schedule, plan.Schedule) {
					t.Fatalf("seed %d matcher %v window %d: schedules differ:\n%v\n%v",
						seed, matcher, w, ep.Plan.Schedule, plan.Schedule)
				}
				if err := plan.Schedule.Validate(g, opt.Window, 1); err != nil {
					t.Fatalf("seed %d matcher %v window %d: %v", seed, matcher, w, err)
				}
				cur = next
			}
			if w < 2 {
				t.Fatalf("seed %d matcher %v: burst drained in %d window, nothing carried over", seed, matcher, w)
			}
			if len(res.Epochs) != w || res.Delivered != load.TotalPackets() {
				t.Fatalf("seed %d matcher %v: %d epochs delivering %d, loop took %d windows for %d packets",
					seed, matcher, len(res.Epochs), res.Delivered, w, load.TotalPackets())
			}
		}
	}
}
