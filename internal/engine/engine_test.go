package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"octopus/internal/core"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

func testArrivals(t *testing.T, seed int64, window int) (*graph.Digraph, []Arrival) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inst := verify.RandomInstance(rng)
	g, load := inst.G, inst.Load
	if len(load.Flows) == 0 {
		t.Skip("empty random instance")
	}
	arrivals := make([]Arrival, 0, len(load.Flows))
	for i, f := range load.Flows {
		f.Routes = f.Routes[:1]
		arrivals = append(arrivals, Arrival{Flow: f, At: i * window / 2})
	}
	return g, arrivals
}

func planFP(t *testing.T, res *core.Result) string {
	t.Helper()
	if res == nil || res.Schedule == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := res.Schedule.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// runSequential drives the pipeline to drain, collecting one fingerprint
// per committed epoch, and returns them with the final totals.
func runSequential(t *testing.T, g *graph.Digraph, arrivals []Arrival, cfg Config) ([]string, Totals) {
	t.Helper()
	p, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitAll(arrivals); err != nil {
		t.Fatal(err)
	}
	var fps []string
	for i := 0; i < 10000; i++ {
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Commit(plan); err != nil {
			t.Fatal(err)
		}
		if plan.Kind == PlanDrained {
			return fps, p.Totals()
		}
		fps = append(fps, planFP(t, plan.sched))
	}
	t.Fatal("pipeline did not drain")
	return nil, Totals{}
}

// TestPipelinedEqualsSequential is the engine half of the daemon's
// pipelining guarantee: planning each epoch on a separate goroutine —
// overlapped with concurrent submissions, cancellations, and queue reads
// from other goroutines — produces exactly the schedules of the
// single-threaded drive. Run under -race this also proves the submission
// side is properly synchronized against an in-flight PlanNext.
func TestPipelinedEqualsSequential(t *testing.T) {
	const window, delta = 60, 4
	cfg := Config{Core: core.Options{Window: window, Delta: delta}, KeepPlans: true, Repair: true, Reactive: true, Audit: true}
	for _, seed := range []int64{11, 27, 42} {
		g, arrivals := testArrivals(t, seed, window)
		wantFPs, wantTotals := runSequential(t, g, arrivals, cfg)

		p, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SubmitAll(arrivals); err != nil {
			t.Fatal(err)
		}
		// Decoy traffic far past the horizon: submitted concurrently with
		// planning, never admitted in the compared range, so the schedules
		// must not change.
		farFuture := (len(wantFPs) + 100) * window
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := 1 << 20
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := arrivals[0].Flow
				f.ID = id
				id++
				if err := p.Submit(f, farFuture); err != nil {
					t.Error(err)
					return
				}
				p.Cancel(-1) // unknown ID: exercises the lock, changes nothing
				p.QueuedPackets()
				p.QueuedFlows()
			}
		}()
		for i := range wantFPs {
			planCh := make(chan *Plan, 1)
			errCh := make(chan error, 1)
			go func() {
				plan, err := p.PlanNext()
				planCh <- plan
				errCh <- err
			}()
			plan, err := <-planCh, <-errCh
			if err != nil {
				t.Fatal(err)
			}
			if got := planFP(t, plan.sched); got != wantFPs[i] {
				t.Fatalf("seed %d epoch %d: pipelined schedule %q != sequential %q", seed, i, got, wantFPs[i])
			}
			if _, err := p.Commit(plan); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		got := p.Totals()
		if got.Delivered != wantTotals.Delivered || got.Psi != wantTotals.Psi ||
			got.Dropped != wantTotals.Dropped || got.UniqueDelivered != wantTotals.UniqueDelivered {
			t.Fatalf("seed %d: pipelined totals %+v != sequential %+v", seed, got, wantTotals)
		}
	}
}

// TestReplanBeforeCommit: a plan that was computed but never committed can
// be superseded by a fresh PlanNext for the same epoch (the daemon does
// this when submissions land while a plan is in flight); the stale plan is
// then rejected, and the two plans are identical when nothing changed.
func TestReplanBeforeCommit(t *testing.T) {
	const window = 50
	g, arrivals := testArrivals(t, 7, window)
	cfg := Config{Core: core.Options{Window: window, Delta: 3}, KeepPlans: true}
	p, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitAll(arrivals); err != nil {
		t.Fatal(err)
	}
	first, err := p.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := planFP(t, first.sched), planFP(t, second.sched); a != b {
		t.Fatalf("re-plan of an unchanged epoch diverged: %q vs %q", a, b)
	}
	if _, err := p.Commit(second); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(first); err == nil {
		t.Fatal("committing a superseded plan should fail")
	} else if !strings.Contains(err.Error(), "stale plan") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := p.Commit(second); err == nil {
		t.Fatal("double commit should fail")
	}
}

// TestCancel covers cancellation of a queued arrival, a backlogged flow,
// and packet conservation across the whole run.
func TestCancel(t *testing.T) {
	g := graph.Complete(4)
	route := func(nodes ...int) traffic.Route { return traffic.Route(nodes) }
	mk := func(id, src, dst, size int, nodes ...int) traffic.Flow {
		return traffic.Flow{ID: id, Src: src, Dst: dst, Size: size, Routes: []traffic.Route{route(nodes...)}}
	}
	const window = 2 // tiny window so big flows span many epochs
	cfg := Config{Core: core.Options{Window: window, Delta: 1}, Repair: true, Reactive: true, Audit: true}
	p, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(mk(1, 0, 1, 40, 0, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(mk(2, 2, 3, 40, 2, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(mk(3, 1, 2, 5, 1, 2), 10*window); err != nil {
		t.Fatal(err)
	}

	completed := map[int]bool{}
	step := func() *Plan {
		t.Helper()
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		stat, err := p.Commit(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range stat.Completed {
			completed[id] = true
		}
		return plan
	}
	step() // epoch 0: flows 1 and 2 admitted, partially served
	if p.BacklogPackets() == 0 {
		t.Fatal("expected a backlog mid-flow")
	}
	if !p.Cancel(2) {
		t.Fatal("cancel of an admitted flow should be accepted")
	}
	if !p.Cancel(3) {
		t.Fatal("cancel of a queued flow should be accepted")
	}
	if p.Cancel(99) {
		t.Fatal("cancel of an unknown flow should be rejected")
	}
	plan := step() // epoch 1: backlogged remainder of flow 2 discarded
	if plan.Stat.Cancelled == 0 {
		t.Fatal("expected the backlogged cancellation to count packets")
	}
	for i := 0; i < 100 && !p.Done(); i++ {
		step()
	}
	if !p.Done() {
		t.Fatal("pipeline did not drain")
	}
	tot := p.Totals()
	if tot.Cancelled == 0 || tot.Delivered == 0 {
		t.Fatalf("unexpected totals %+v", tot)
	}
	if got := tot.Delivered + tot.Dropped + tot.Cancelled + tot.SurvivedRedundant; got != tot.Submitted {
		t.Fatalf("packets not conserved: delivered+dropped+cancelled+survived = %d, submitted %d", got, tot.Submitted)
	}
	if !completed[1] || completed[2] || completed[3] {
		t.Fatalf("completed = %v, want flow 1 only (2 and 3 were cancelled)", completed)
	}
	if p.LiveFlows() != 0 {
		t.Fatalf("%d slots still live after the drain", p.LiveFlows())
	}
	// Flow 3 was cancelled while still queued: all 5 packets discarded.
	if tot.Cancelled < 5 {
		t.Fatalf("queued cancellation not accounted: %+v", tot)
	}
}

// TestReloadFabric covers the live-reload path: a reload that breaks a
// flow's route triggers repair at the next boundary; invalid reloads are
// rejected without touching the fabric.
func TestReloadFabric(t *testing.T) {
	g := graph.Complete(4)
	f := traffic.Flow{ID: 1, Src: 0, Dst: 1, Size: 30, Routes: []traffic.Route{{0, 1}}}

	plain, err := New(g, Config{Core: core.Options{Window: 4, Delta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ReloadFabric(g); err == nil {
		t.Fatal("reload outside repair mode should fail")
	}

	tr := &fault.Trace{Events: []fault.Event{{At: 0, Kind: fault.LinkDown, From: 2, To: 3}}}
	traced, err := New(g, Config{Core: core.Options{Window: 4, Delta: 1}, Repair: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := traced.ReloadFabric(g); err == nil {
		t.Fatal("reload during a failure trace should fail")
	}

	p, err := New(g, Config{Core: core.Options{Window: 4, Delta: 1}, Repair: true, Reactive: true, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(f, 0); err != nil {
		t.Fatal(err)
	}
	plan, err := p.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(plan); err != nil {
		t.Fatal(err)
	}
	if p.BacklogPackets() == 0 {
		t.Fatal("expected mid-flow backlog before the reload")
	}
	if err := p.ReloadFabric(graph.Complete(1)); !errors.Is(err, ErrFabricTooSmall) {
		t.Fatalf("reload onto a fabric that cannot host the flow: %v, want ErrFabricTooSmall", err)
	}
	if p.Fabric() != g {
		t.Fatal("failed reload must leave the fabric unchanged")
	}
	// Remove the 0->1 link: the backlogged flow must be rerouted.
	g2 := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v && !(u == 0 && v == 1) {
				g2.AddEdge(u, v)
			}
		}
	}
	if err := p.ReloadFabric(g2); err != nil {
		t.Fatal(err)
	}
	plan, err = p.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stat.Rerouted == 0 {
		t.Fatalf("expected the reload to force a reroute, stat %+v", plan.Stat)
	}
	if _, err := p.Commit(plan); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !p.Done(); i++ {
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Commit(plan); err != nil {
			t.Fatal(err)
		}
	}
	tot := p.Totals()
	if tot.Delivered != f.Size {
		t.Fatalf("flow not fully delivered across the reload: %+v", tot)
	}
}

func TestSubmitValidation(t *testing.T) {
	p, err := New(graph.Complete(3), Config{Core: core.Options{Window: 10}})
	if err != nil {
		t.Fatal(err)
	}
	f := traffic.Flow{ID: 1, Src: 0, Dst: 1, Size: 2, Routes: []traffic.Route{{0, 1}}}
	if err := p.Submit(f, -1); err == nil {
		t.Fatal("negative arrival should fail")
	}
	if err := p.Submit(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(f, 5); err == nil {
		t.Fatal("duplicate ID should fail")
	}
	if _, err := New(graph.Complete(3), Config{}); err == nil {
		t.Fatal("zero window should fail")
	}
}

// TestNewRejectsWindowWithoutRoom: an engine whose Δ leaves no slot of the
// window to serve would idle every epoch — in repair mode as a skipped
// jitter epoch, forever, with its backlog never delivered. New refuses it,
// as core.New refuses such a window, in both modes.
func TestNewRejectsWindowWithoutRoom(t *testing.T) {
	for _, repair := range []bool{false, true} {
		for _, delta := range []int{100, 101} {
			_, err := New(graph.Complete(4), Config{Core: core.Options{Window: 100, Delta: delta}, Repair: repair})
			if !errors.Is(err, core.ErrWindowTooSmall) {
				t.Errorf("repair=%v Δ=%d: err = %v, want core.ErrWindowTooSmall", repair, delta, err)
			}
		}
		if _, err := New(graph.Complete(4), Config{Core: core.Options{Window: 100, Delta: -1}, Repair: repair}); err == nil {
			t.Errorf("repair=%v: negative Δ accepted", repair)
		}
		if _, err := New(graph.Complete(4), Config{Core: core.Options{Window: 100, Delta: 99}, Repair: repair}); err != nil {
			t.Errorf("repair=%v Δ=99: %v", repair, err)
		}
	}
}

// TestDrainedThenResume: the daemon's steady state — committing drained
// epochs while idle, then resuming when traffic arrives, keeps simulated
// time advancing and schedules correctly.
func TestDrainedThenResume(t *testing.T) {
	const window = 10
	p, err := New(graph.Complete(3), Config{Core: core.Options{Window: window, Delta: 1}, Repair: true, Reactive: true, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind != PlanDrained {
			t.Fatalf("epoch %d: want drained, got kind %d", i, plan.Kind)
		}
		if _, err := p.Commit(plan); err != nil {
			t.Fatal(err)
		}
	}
	if p.Epoch() != 3 || p.Boundary() != 3*window {
		t.Fatalf("time did not advance: epoch %d boundary %d", p.Epoch(), p.Boundary())
	}
	f := traffic.Flow{ID: 1, Src: 0, Dst: 2, Size: 4, Routes: []traffic.Route{{0, 2}}}
	if err := p.Submit(f, p.Boundary()); err != nil {
		t.Fatal(err)
	}
	plan, err := p.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != PlanScheduled || plan.Stat.Arrived != 4 {
		t.Fatalf("resume epoch: kind %d stat %+v", plan.Kind, plan.Stat)
	}
	if _, err := p.Commit(plan); err != nil {
		t.Fatal(err)
	}
	if p.Totals().Delivered != 4 {
		t.Fatalf("delivery after resume: %+v", p.Totals())
	}
}

// TestStaleCancellationsAreForgotten: a cancellation is dropped at the
// commit that applies it or finds its flow already gone, so requests naming
// delivered flows do not pile up; one naming an arrival still queued for a
// later boundary is kept until that boundary, and then applied.
func TestStaleCancellationsAreForgotten(t *testing.T) {
	const window = 10
	p, err := New(graph.Complete(4), Config{Core: core.Options{Window: window, Delta: 1}, Repair: true, Reactive: true, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	step := func() *FaultEpochStat {
		t.Helper()
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		stat, err := p.Commit(plan)
		if err != nil {
			t.Fatal(err)
		}
		return stat
	}
	pendingCancels := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.cancelled)
	}
	// A churn of small flows, each delivered within its epoch and cancelled
	// only afterwards.
	for id := 0; id < 50; id++ {
		f := traffic.Flow{ID: id, Src: id % 4, Dst: (id + 1) % 4, Size: 3, Routes: []traffic.Route{{id % 4, (id + 1) % 4}}}
		if err := p.Submit(f, p.Boundary()); err != nil {
			t.Fatal(err)
		}
		if id > 0 && !p.Cancel(id-1) {
			t.Fatalf("cancel of delivered flow %d refused", id-1)
		}
		if stat := step(); stat.Cancelled != 0 || stat.Backlog != 0 {
			t.Fatalf("flow %d: stat %+v, want everything delivered and nothing cancelled", id, *stat)
		}
		if n := pendingCancels(); n != 0 {
			t.Fatalf("after flow %d: %d stale cancellation requests kept", id, n)
		}
	}
	if !p.Cancel(7) || p.Cancel(1000) {
		t.Fatal("Cancel must accept a delivered flow's ID and refuse an unknown one")
	}

	// Flow 100 arrives three epochs from now; its cancellation must wait.
	late := traffic.Flow{ID: 100, Src: 0, Dst: 1, Size: 5, Routes: []traffic.Route{{0, 1}}}
	if err := p.Submit(late, p.Boundary()+3*window); err != nil {
		t.Fatal(err)
	}
	if !p.Cancel(100) {
		t.Fatal("cancel of a queued flow refused")
	}
	for i := 0; i < 3; i++ {
		if stat := step(); stat.Cancelled != 0 {
			t.Fatalf("epoch %d: cancelled %d packets before the arrival was due", stat.Epoch, stat.Cancelled)
		}
		if n := pendingCancels(); n != 1 {
			t.Fatalf("cancellation of the queued arrival dropped early (%d pending)", n)
		}
	}
	if stat := step(); stat.Cancelled != late.Size || stat.Arrived != 0 {
		t.Fatalf("due epoch: stat %+v, want the arrival cancelled on admission", *stat)
	}
	if n := pendingCancels(); n != 0 || !p.Done() || p.LiveFlows() != 0 {
		t.Fatalf("after the drain: %d requests pending, done %v, %d live", n, p.Done(), p.LiveFlows())
	}
	tot := p.Totals()
	if tot.Submitted != tot.Delivered+tot.Cancelled || tot.Cancelled != late.Size || p.violations != 0 {
		t.Fatalf("totals %+v (%d conservation violations)", tot, p.violations)
	}
}

// TestKeepPlansFabricAcrossFailure: the healthy epochs' stats carry the
// pipeline's own fabric (no per-epoch copy), the degraded ones a snapshot
// without the failed link — each the fabric its plan verifies against.
func TestKeepPlansFabricAcrossFailure(t *testing.T) {
	const window = 6
	g := graph.Complete(4)
	tr := &fault.Trace{Events: []fault.Event{
		{At: 2 * window, Kind: fault.LinkDown, From: 0, To: 1},
		{At: 4 * window, Kind: fault.LinkUp, From: 0, To: 1},
	}}
	p, err := New(g, Config{Core: core.Options{Window: window, Delta: 1}, Trace: tr, Repair: true, Reactive: true, Audit: true, KeepPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(traffic.Flow{ID: 1, Src: 0, Dst: 1, Size: 40, Routes: []traffic.Route{{0, 1}}}, 0); err != nil {
		t.Fatal(err)
	}
	rerouted := 0
	for e := 0; e < 6; e++ {
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		stat, err := p.Commit(plan)
		if err != nil {
			t.Fatal(err)
		}
		rerouted += stat.Rerouted
		degraded := e >= 2 && e < 4
		switch {
		case stat.Fabric == nil || stat.Load == nil || stat.Plan == nil:
			t.Fatalf("epoch %d: KeepPlans stat incomplete: %+v", e, stat)
		case !degraded && stat.Fabric != g:
			t.Fatalf("epoch %d: healthy epoch carries a copy of the fabric", e)
		case degraded && (stat.Fabric == g || stat.Fabric.HasEdge(0, 1) || stat.FailedLinks != 1):
			t.Fatalf("epoch %d: degraded epoch's fabric still has the failed link (failed links %d)", e, stat.FailedLinks)
		}
		if _, err := verify.Schedule(stat.Fabric, stat.Load, stat.Plan.Schedule, verify.Options{Window: window}); err != nil {
			t.Fatalf("epoch %d: plan does not verify against the stat's fabric: %v", e, err)
		}
	}
	if rerouted == 0 {
		t.Fatal("the failure never forced a reroute")
	}
}

// TestWeightHopsCarriedAcrossEpochs: a flow's weight override belongs to
// the flow, not to its first epoch. Packets that never left the source
// must plan at the same weight in every epoch, and a mid-route residual's
// override shrinks by the hops already served.
func TestWeightHopsCarriedAcrossEpochs(t *testing.T) {
	p, err := New(graph.Complete(3), Config{Core: core.Options{Window: 10, Delta: 1}})
	if err != nil {
		t.Fatal(err)
	}
	f := traffic.Flow{ID: 1, Src: 0, Dst: 2, Size: 30, Routes: []traffic.Route{{0, 1, 2}}, WeightHops: 6}
	want := traffic.Weight(f.WeightLen(f.Routes[0]))
	if err := p.Submit(f, 0); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		resident := 0
		for _, w := range plan.work.Flows {
			if w.Src == f.Src {
				resident++
				if got := traffic.Weight(w.WeightLen(w.Routes[0])); got != want {
					t.Errorf("epoch %d: source-resident packets on %v plan at weight %d, want %d (WeightHops %d)",
						epoch, w.Routes[0], got, want, w.WeightHops)
				}
			} else if w.WeightHops != f.WeightHops-1 {
				t.Errorf("epoch %d: residual on %v has WeightHops %d, want %d", epoch, w.Routes[0], w.WeightHops, f.WeightHops-1)
			}
		}
		if resident != 1 {
			t.Fatalf("epoch %d: %d source-resident flows in %+v, want 1", epoch, resident, plan.work.Flows)
		}
		if _, err := p.Commit(plan); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchAdmittedAtOneBoundary: SubmitAll queues a batch under one hold
// of the submission lock, so a PlanNext snapshot taken while batches keep
// arriving sees all of a batch or none of it, and every plan's due count
// is a multiple of the batch size. Submitted flow by flow, a snapshot can
// fall inside a batch and split it over two epochs.
func TestBatchAdmittedAtOneBoundary(t *testing.T) {
	const batches, size, n = 3000, 8, 6
	g := graph.Complete(n)
	p, err := New(g, Config{Core: core.Options{Window: 200, Delta: 2, Matcher: core.MatcherGreedy}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			batch := make([]Arrival, size)
			for k := range batch {
				id := b*size + k + 1
				src, dst := id%n, (id+1+id/n%(n-1))%n
				r, _ := traffic.ShortestRoute(g, src, dst)
				batch[k] = Arrival{Flow: traffic.Flow{ID: id, Src: src, Dst: dst, Size: 1, Routes: []traffic.Route{r}}}
			}
			if err := p.SubmitAll(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	due, split := 0, 0
	for submitting := true; submitting || !p.Done(); {
		select {
		case <-done:
			submitting = false
		default:
		}
		plan, err := p.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		if plan.nDue%size != 0 {
			split++
		}
		due += plan.nDue
		if _, err := p.Commit(plan); err != nil {
			t.Fatal(err)
		}
	}
	if split > 0 {
		t.Errorf("%d of %d plans split a batch", split, p.Epoch())
	}
	if due != batches*size {
		t.Errorf("admitted %d arrivals, submitted %d", due, batches*size)
	}
}
