package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/obs"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// churnConfig defines engine-churn: an engine.Pipeline driven flat out, an
// epoch being the sample. The epoch count is fixed by --seconds rather
// than by the clock, so that a seed's totals repeat exactly.
type churnConfig struct {
	arrivals        arrivalConfig
	epochsPerSecond int // epochs run per second of --seconds
}

func engineChurn() churnConfig {
	return churnConfig{arrivals: churnArrivals(), epochsPerSecond: 100}
}

// churnWindow is the number of epochs whose flows and wall time make one
// sample of the throughput: a run has dozens of them, and their median
// leaves out the ones a noisy neighbour of the host disturbed.
const churnWindow = 50

// churnOverrun is how many times --seconds a pass may take before it stops
// at the next window: the epoch count is sized for a quiet host, and on a
// disturbed one a pass has been seen to take five times as long.
const churnOverrun = 2

// churnPass is what one pass over the pre-generated epochs measured. The
// per-call series are only filled by a traced pass.
type churnPass struct {
	epochMs                       []float64
	submitUs, planMs, commitMs    []float64
	replanMs, coreNewMs, coreRun  []float64
	steps, verifyMs               []float64
	backlogPkts, backlogFlows     []float64
	configs, slots                []float64
	newAllocs, runAllocs          float64
	winFlowsPerS                  []float64 // one entry per churnWindow epochs
	flows                         int
	cpu                           float64
	heapPeak                      uint64
	allocs                        uint64
	liveQ1, liveEnd               uint64
	cancelled, violations         int
	offered                       int64
	totals                        engine.Totals
	lastLoad                      *traffic.Load
	reg                           *obs.Registry
	epochs, failedEpochs, aborted int
}

// pass builds a pipeline on the input's fabric and drives every epoch:
// submit the epoch's flows at the boundary, cancel the marked flows of the
// previous epoch, PlanNext, Commit. With a tracer each call gets a span
// and, outside the epoch's timer, the bench re-plans the epoch's load
// itself to split PlanNext into planner and bookkeeping time. It runs the
// first epochs epochs of the input, fewer (a whole number of windows) if
// they take longer than maxWall.
func (c churnConfig) pass(in *churnInput, epochs int, maxWall time.Duration, tr *tracer, res *result) (*churnPass, error) {
	traced := tr != nil
	pipe, err := engine.New(in.fabric, engine.Config{Core: c.arrivals.core, Repair: true, Reactive: true, KeepPlans: traced})
	if err != nil {
		return nil, err
	}
	ps := &churnPass{reg: obs.NewRegistry()}
	replanOpt := c.arrivals.core
	replanOpt.Obs = &obs.Observer{Metrics: ps.reg}

	conserved := func(e int) {
		t := pipe.Totals()
		held := t.Delivered + t.Dropped + t.Cancelled + t.SurvivedRedundant + pipe.BacklogPackets() + pipe.QueuedPackets()
		if t.Submitted != held {
			ps.violations++
			ps.failedEpochs++
			res.violate("epoch %d: engine.Totals conservation broken: submitted %d, accounted %d", e, t.Submitted, held)
		}
	}

	runtime.GC()
	m0 := mallocs()
	hs := startHeapSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	winStart, winFlows := start, 0
	for e := 0; e < epochs; e++ {
		op := e + 1
		t0 := time.Now()
		root := tr.start("bench.epoch", op, 0)
		at := pipe.Boundary()
		sp := tr.start("engine.submit", op, root)
		for i := range in.flows[e] {
			var s0 time.Time
			if traced {
				s0 = time.Now()
			}
			if err := pipe.Submit(in.flows[e][i], at); err != nil {
				hs.Stop()
				return nil, err // the generator produced a duplicate ID: a bench bug
			}
			if traced {
				ps.submitUs = append(ps.submitUs, us(time.Since(s0)))
			}
		}
		tr.end(sp)
		for _, id := range in.cancels[e] {
			if pipe.Cancel(id) {
				ps.cancelled++
			}
		}
		sp = tr.start("engine.plan_next", op, root)
		plan, err := pipe.PlanNext()
		planD := tr.end(sp)
		var stat *engine.FaultEpochStat
		if err == nil {
			sp = tr.start("engine.commit", op, root)
			stat, err = pipe.Commit(plan)
			ps.commitMs = append(ps.commitMs, ms(tr.end(sp)))
		}
		tr.end(root)
		if err != nil {
			// The pipeline's state is unknown after a failed epoch: count
			// the rest of the pass as failed and stop.
			ps.aborted = epochs - e
			res.violate("epoch %d: %v", op, err)
			break
		}
		ps.epochs++
		ps.epochMs = append(ps.epochMs, ms(time.Since(t0)))
		ps.planMs = append(ps.planMs, ms(planD))
		ps.backlogPkts = append(ps.backlogPkts, float64(stat.Backlog))
		ps.offered += (&traffic.Load{Flows: in.flows[e]}).TotalWeightedHops()

		if traced && plan.Kind == engine.PlanScheduled {
			if err := c.replan(tr, op, stat, replanOpt, ps); err != nil {
				ps.failedEpochs++
				res.violate("epoch %d: %v", op, err)
			}
		}
		if op%100 == 0 {
			conserved(op)
		}
		if traced && (op == epochs/4 || op == epochs) {
			runtime.GC()
			if op == epochs {
				ps.liveEnd = liveHeap()
			} else {
				ps.liveQ1 = liveHeap()
			}
		}
		winFlows += len(in.flows[e])
		if op%churnWindow == 0 {
			now := time.Now()
			ps.winFlowsPerS = append(ps.winFlowsPerS, float64(winFlows)/now.Sub(winStart).Seconds())
			ps.flows += winFlows
			winStart, winFlows = now, 0
			if maxWall > 0 && now.Sub(start) > maxWall && op < epochs {
				res.note("stopped after %d of %d epochs: they took %.1f s, past the %.1f s allowed", op, epochs, now.Sub(start).Seconds(), maxWall.Seconds())
				break
			}
		}
	}
	ps.cpu = cpuSeconds() - cpu0
	ps.heapPeak = hs.Stop()
	if ps.epochs%100 != 0 {
		conserved(ps.epochs)
	}
	ps.allocs = mallocs() - m0
	ps.totals = pipe.Totals()
	return ps, nil
}

// replan re-runs the planner on the load the engine kept for the epoch
// (Config.KeepPlans) and checks that it reproduces the engine's ψ; every
// hundredth epoch's schedule also goes through verify.Schedule.
func (c churnConfig) replan(tr *tracer, op int, stat *engine.FaultEpochStat, opt core.Options, ps *churnPass) error {
	root := tr.start("bench.replan", op, 0)
	defer tr.end(root)
	pl, err := tracedPlan(tr, op, root, stat.Fabric, stat.Load, opt)
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	if pl.plan.Psi != stat.Psi {
		return fmt.Errorf("replan ψ %d differs from the engine's %d", pl.plan.Psi, stat.Psi)
	}
	ps.coreNewMs = append(ps.coreNewMs, pl.newMs)
	ps.coreRun = append(ps.coreRun, pl.runMs)
	ps.replanMs = append(ps.replanMs, pl.newMs+pl.runMs)
	ps.steps = append(ps.steps, pl.steps...)
	ps.newAllocs, ps.runAllocs = pl.newAllocs, pl.runAllocs
	ps.backlogFlows = append(ps.backlogFlows, float64(len(stat.Load.Flows)))
	ps.configs = append(ps.configs, float64(len(pl.plan.Schedule.Configs)))
	ps.slots = append(ps.slots, float64(pl.plan.Schedule.Cost()))
	ps.lastLoad = stat.Load
	if op%100 == 0 {
		sp := tr.start("verify.schedule", op, root)
		_, err := verify.Schedule(stat.Fabric, stat.Load, pl.plan.Schedule, verify.Options{
			Window: opt.Window,
			Claim:  &verify.Claim{Delivered: pl.plan.Delivered, Hops: pl.plan.Hops, Psi: pl.plan.Psi},
		})
		ps.verifyMs = append(ps.verifyMs, ms(tr.end(sp)))
		if err != nil {
			return fmt.Errorf("verify.Schedule: %w", err)
		}
	}
	return nil
}

// run measures the workload. Untraced, one pass of every epoch. Traced,
// an untraced reference pass and a traced pass of half the epochs each.
func (c churnConfig) run(rc runConfig) (*result, *tracer, error) {
	res := newResult()
	epochs := max(churnWindow, int(rc.seconds*float64(c.epochsPerSecond))/churnWindow*churnWindow)
	maxWall := time.Duration(churnOverrun * rc.seconds * float64(time.Second))
	if rc.trace {
		epochs = max(churnWindow, epochs/2/churnWindow*churnWindow)
		maxWall /= 2
	}
	var in *churnInput
	setups, err := rc.repeatSetup(func() (err error) {
		in, err = c.arrivals.churn(rc.seed, epochs)
		return err
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	res.samples["setups"] = len(setups)
	res.samples["epochs"] = epochs

	ref, err := c.pass(in, epochs, maxWall, nil, res)
	if err != nil {
		return nil, nil, err
	}
	book := func(ps *churnPass) {
		res.attempted += ps.epochs + ps.aborted
		res.failed += ps.failedEpochs + ps.aborted
	}
	book(ref)
	if !rc.trace {
		if len(ref.epochMs) == 0 {
			return res, nil, nil
		}
		res.set("setup_s", median(setups))
		res.set("op_ms_p50", median(ref.epochMs))
		res.set("flows_per_s", median(ref.winFlowsPerS))
		res.set("heap_peak_mb", mib(ref.heapPeak))
		res.set("psi_frac", float64(ref.totals.Psi)/float64(ref.offered))
		res.set("delivered_frac", float64(ref.totals.Delivered)/float64(ref.totals.Submitted))
		return res, nil, nil
	}

	// The traced pass runs the epochs the reference pass ran, however long
	// they take, so that the two end with the same totals.
	tr := newTracer()
	ps, err := c.pass(in, ref.epochs, 0, tr, res)
	if err != nil {
		return nil, tr, err
	}
	book(ps)
	if ps.totals != ref.totals {
		res.violate("traced pass totals %+v differ from the reference pass's %+v", ps.totals, ref.totals)
	}
	if len(ps.epochMs) == 0 || len(ref.epochMs) == 0 {
		return res, tr, nil
	}
	res.samples["replans"] = len(ps.replanMs)
	res.samples["steps"] = len(ps.steps)
	replans := float64(max(1, len(ps.replanMs)))
	res.set("core.new_ms", median(ps.coreNewMs))
	res.set("core.new_allocs", ps.newAllocs)
	res.set("core.run_ms", median(ps.coreRun))
	res.set("core.run_allocs", ps.runAllocs)
	res.set("core.step_ms_p50", median(ps.steps))
	res.set("core.step_ms_p99", percentile(ps.steps, 0.99))
	setCoreCounters(res, ps.reg, replans)
	res.set("verify.schedule_ms", median(ps.verifyMs))
	res.set("schedule.configs", mean(ps.configs))
	res.set("schedule.slots_used", mean(ps.slots))
	res.set("engine.submit_us_p50", median(ps.submitUs))
	res.set("engine.plan_next_ms_p50", median(ps.planMs))
	res.set("engine.plan_next_ms_p99", percentile(ps.planMs, 0.99))
	res.set("engine.commit_ms_p50", median(ps.commitMs))
	res.set("engine.commit_ms_p99", percentile(ps.commitMs, 0.99))
	res.set("engine.cpu_s_per_kflow", ref.cpu/(float64(ref.flows)/1e3))
	res.set("engine.epoch_ms_p90", percentile(ps.epochMs, 0.9))
	res.set("engine.epoch_ms_p99", percentile(ps.epochMs, 0.99))
	res.set("engine.core_replan_ms_p50", median(ps.replanMs))
	res.set("engine.bookkeeping_ms_p50", median(ps.planMs)-median(ps.replanMs))
	res.set("engine.plan_growth", growth(ps.planMs))
	res.set("engine.commit_growth", growth(ps.commitMs))
	res.set("engine.live_heap_mb_q1", mib(ps.liveQ1))
	res.set("engine.live_heap_mb_end", mib(ps.liveEnd))
	if ps.liveQ1 > 0 {
		res.set("engine.live_heap_growth", float64(ps.liveEnd)/float64(ps.liveQ1))
	}
	res.set("engine.backlog_pkts_mean", mean(ps.backlogPkts))
	res.set("engine.backlog_flows_mean", mean(ps.backlogFlows))
	res.set("engine.allocs_per_epoch", float64(ref.allocs)/float64(ref.epochs))
	res.set("engine.cancelled_flows", float64(ps.cancelled))
	res.set("engine.conservation_violations", float64(ps.violations+ref.violations))
	res.set("obs.trace_overhead_frac", median(ps.epochMs)/median(ref.epochMs)-1)

	rng := rand.New(rand.NewSource(rc.seed))
	res.set("traffic.shortest_route_us_p50", shortestRouteBench(in.fabric, rng))
	if ps.lastLoad != nil {
		_, greedyUs := matchingBench(in.fabric.N(), ps.lastLoad, rng, false, res.values["matching.greedy_calls"] > 0)
		res.set("matching.greedy_solve_us_p50", greedyUs)
	}
	return res, tr, nil
}
