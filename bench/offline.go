package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"
	"unsafe"

	"octopus/internal/algo"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/matching"
	"octopus/internal/obs"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// outcome is what one offline op achieved. The instance and the planner
// are deterministic, so every op of a run must produce the same outcome.
type outcome struct {
	psi, offered     int64
	delivered, total int
}

// opSample is one timed offline op: stream decode, Materialize, Validate
// and the registry Run (plan plus replay). Verification is not timed.
type opSample struct {
	wall, run time.Duration // the whole op; the algo Run call inside it
	cpu       float64
	heapPeak  uint64
	outcome
}

// offlineRun is one run of an offline workload on one instance.
type offlineRun struct {
	cfg    offlineConfig
	algo   algo.Algorithm
	params algo.Params
	inst   *offlineInstance
}

// decode is the op's input path: it is what mhsim does with a flow stream.
func (o *offlineRun) decode() (*traffic.Load, error) {
	store, err := traffic.ReadStore(bytes.NewReader(o.inst.stream))
	if err != nil {
		return nil, err
	}
	load := store.Materialize(nil)
	return load, load.Validate(o.inst.fabric)
}

// plainOp runs and times one untraced op, then verifies its outcome. It
// collects first, untimed, so that every op starts from the heap a fresh
// mhsim process would: where the collector's cycles fall inside an op
// otherwise depends on the garbage the op before it left, and both the op's
// time and its heap peak move with that.
func (o *offlineRun) plainOp() (opSample, error) {
	runtime.GC()
	hs := startHeapSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	load, err := o.decode()
	if err != nil {
		hs.Stop()
		return opSample{}, err
	}
	runStart := time.Now()
	out, err := o.algo.Run(o.inst.fabric, load, o.params)
	end := time.Now()
	s := opSample{wall: end.Sub(start), run: end.Sub(runStart), cpu: cpuSeconds() - cpu0, heapPeak: hs.Stop()}
	if err != nil {
		return s, err
	}
	if _, err := out.Verify(); err != nil {
		return s, fmt.Errorf("Outcome.Verify: %w", err)
	}
	s.outcome = outcome{psi: out.Psi, offered: load.TotalWeightedHops(), delivered: out.Delivered, total: out.Total}
	return s, nil
}

// layerSamples holds what the traced ops measured, one entry per op (or
// per Step for steps); the report takes medians.
type layerSamples struct {
	decode, materialize, validate []float64 // ms
	coreNew, coreRun, simRun      []float64
	verify                        []float64
	steps                         []float64
	materializeAllocs             float64
	coreNewAllocs, coreRunAllocs  float64
	simAllocs                     float64
	storeBytes, pointerBytes      uint64
	simConfigs, schedConfigs      int
	slotsUsed                     int
	reg                           *obs.Registry // counters of the last traced op
}

// tracedOp replays one op call by call, with a span around each call into
// a layer and the bench's own registry on the planner's Options.Obs. It
// drives core.New and Scheduler.Step itself where plainOp goes through
// the registry's Run, so its outcome is checked against plainOp's.
func (o *offlineRun) tracedOp(tr *tracer, op int, ls *layerSamples) (outcome, error) {
	planner, ok := o.algo.(algo.CorePlanner)
	if !ok {
		return outcome{}, fmt.Errorf("%s is not a core planner", o.algo.Name())
	}
	g := o.inst.fabric
	root := tr.start("bench.op", op, 0)
	defer tr.end(root)

	sp := tr.start("traffic.decode", op, root)
	store, err := traffic.ReadStore(bytes.NewReader(o.inst.stream))
	ls.decode = append(ls.decode, ms(tr.end(sp)))
	if err != nil {
		return outcome{}, err
	}
	ls.storeBytes = store.Bytes()
	// The same flows as one allocation per flow plus one per route's node
	// slice, counted from the layouts as mhsbench does.
	ls.pointerBytes = uint64(unsafe.Sizeof(traffic.Flow{}))*uint64(store.Len()) +
		uint64(unsafe.Sizeof(traffic.Route{}))*uint64(store.NumRoutes()) +
		uint64(unsafe.Sizeof(int(0)))*uint64(store.NumRouteNodes())

	m0 := mallocs()
	sp = tr.start("traffic.materialize", op, root)
	load := store.Materialize(nil)
	ls.materialize = append(ls.materialize, ms(tr.end(sp)))
	ls.materializeAllocs = float64(mallocs() - m0)

	sp = tr.start("traffic.validate", op, root)
	err = load.Validate(g)
	ls.validate = append(ls.validate, ms(tr.end(sp)))
	if err != nil {
		return outcome{}, err
	}

	ls.reg = obs.NewRegistry()
	p := o.params
	p.Obs = &obs.Observer{Metrics: ls.reg}
	runLoad, opt, err := planner.CoreOptions(load, p)
	if err != nil {
		return outcome{}, err
	}
	whole := tr.start("algo.run", op, root)
	ps, err := tracedPlan(tr, op, whole, g, runLoad, opt)
	if err != nil {
		return outcome{}, err
	}
	plan := ps.plan
	ls.coreNew = append(ls.coreNew, ps.newMs)
	ls.coreRun = append(ls.coreRun, ps.runMs)
	ls.steps = append(ls.steps, ps.steps...)
	ls.coreNewAllocs, ls.coreRunAllocs = ps.newAllocs, ps.runAllocs
	m0 = mallocs()
	sp = tr.start("simulate.run", op, whole)
	sim, err := simulate.Run(g, runLoad, plan.Schedule, simulate.Options{
		Window: opt.Window, MultiHop: opt.MultiHop, Ports: opt.Ports, Epsilon64: opt.Epsilon64, Obs: opt.Obs,
	})
	ls.simRun = append(ls.simRun, ms(tr.end(sp)))
	if err != nil {
		return outcome{}, err
	}
	ls.simAllocs = float64(mallocs() - m0)
	tr.end(whole)
	ls.simConfigs = sim.Configs
	ls.schedConfigs = len(plan.Schedule.Configs)
	ls.slotsUsed = plan.Schedule.Cost()

	sp = tr.start("verify.schedule", op, root)
	_, err = verify.Schedule(g, runLoad, plan.Schedule, verify.Options{
		Window: opt.Window, Ports: opt.Ports, Epsilon64: opt.Epsilon64,
		Claim: &verify.Claim{Delivered: plan.Delivered, Hops: plan.Hops, Psi: plan.Psi},
	})
	ls.verify = append(ls.verify, ms(tr.end(sp)))
	if err != nil {
		return outcome{}, fmt.Errorf("verify.Schedule: %w", err)
	}
	return outcome{psi: sim.Psi, offered: runLoad.TotalWeightedHops(), delivered: sim.Delivered, total: sim.TotalPackets}, nil
}

// planSample is one traced planner run: core.New, then Scheduler.Step in
// a loop, each under its own span.
type planSample struct {
	newMs, runMs         float64
	steps                []float64 // ms per Step that planned a configuration
	newAllocs, runAllocs float64
	plan                 *core.Result
}

// tracedPlan plans load on g the way the registry's Run and the engine's
// PlanNext do, but step by step so that each call is timed on its own.
func tracedPlan(tr *tracer, op, parent int, g *graph.Digraph, load *traffic.Load, opt core.Options) (planSample, error) {
	var ps planSample
	m0 := mallocs()
	sp := tr.start("core.new", op, parent)
	s, err := core.New(g, load, opt)
	ps.newMs = ms(tr.end(sp))
	if err != nil {
		return ps, err
	}
	m1 := mallocs()
	loop := tr.start("core.run", op, parent)
	for {
		st := tr.start("core.step", op, loop)
		_, more, err := s.Step()
		d := tr.end(st)
		if err != nil {
			return ps, err
		}
		if !more {
			break
		}
		ps.steps = append(ps.steps, ms(d))
	}
	ps.plan, err = s.Run() // the loop is done: this only collects the result
	ps.runMs = ms(tr.end(loop))
	ps.newAllocs, ps.runAllocs = float64(m1-m0), float64(mallocs()-m1)
	return ps, err
}

// minOps is the fewest timed ops an untraced offline run takes, however
// short --seconds is.
const minOps = 3

// run measures the workload. Untraced, it times ops for rc.seconds.
// Traced, it alternates an untraced reference op with a traced op for
// rc.seconds and then takes the one-off layer measurements.
func (c offlineConfig) run(rc runConfig) (*result, *tracer, error) {
	a, p, err := algo.ParseSpec(c.spec, algo.Params{Window: c.window, Delta: c.delta})
	if err != nil {
		return nil, nil, err
	}
	res := newResult()
	o := &offlineRun{cfg: c, algo: a, params: p}
	setups, err := rc.repeatSetup(func() (err error) {
		o.inst = nil // let the previous instance go before building the next
		o.inst, err = c.build(rc.seed)
		return err
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	res.samples["setups"] = len(setups)

	// attempt runs fn and books it as one attempted operation: a failed op
	// is counted and reported, and every op must repeat the first outcome.
	var want *outcome
	attempt := func(kind string, fn func() (outcome, error)) bool {
		res.attempted++
		got, err := fn()
		if err != nil {
			res.failed++
			res.violate("op %d (%s): %v", res.attempted, kind, err)
			return false
		}
		if want == nil {
			want = &got
		} else if got != *want {
			res.violate("op %d (%s): outcome %+v differs from the first op's %+v", res.attempted, kind, got, *want)
		}
		return true
	}
	var plain []opSample
	plainOp := func() bool {
		var s opSample
		ok := attempt("untraced", func() (outcome, error) {
			var err error
			s, err = o.plainOp()
			return s.outcome, err
		})
		if ok {
			plain = append(plain, s)
		}
		return ok
	}

	if !plainOp() { // warm-up: grows the heap and the matcher arenas
		return res, nil, nil
	}
	cold := plain[0]
	plain = plain[:0]

	var tr *tracer
	var ls layerSamples
	if rc.trace {
		tr = newTracer()
	}
	budget := time.Duration(rc.seconds * float64(time.Second))
	minRounds := minOps
	if rc.trace {
		minRounds = 1
	}
	// A round is not started when the last one's length says it would end
	// past the budget.
	start, last := time.Now(), time.Duration(0)
	for n := 0; n < minRounds || time.Since(start)+last <= budget; n++ {
		roundStart := time.Now()
		if !plainOp() {
			break
		}
		if rc.trace && !attempt("traced", func() (outcome, error) { return o.tracedOp(tr, n+1, &ls) }) {
			break
		}
		last = time.Since(roundStart)
	}
	if len(plain) == 0 {
		return res, tr, nil
	}

	walls := make([]float64, len(plain))
	runs := make([]float64, len(plain))
	peaks := make([]float64, len(plain))
	cpus := make([]float64, len(plain))
	for i, s := range plain {
		walls[i], runs[i], peaks[i], cpus[i] = ms(s.wall), ms(s.run), mib(s.heapPeak), s.cpu
	}
	res.samples["ops"] = len(plain)
	if !rc.trace {
		flows := float64(o.inst.flows)
		res.set("setup_s", median(setups))
		res.set("op_ms_p50", median(walls))
		res.set("flows_per_s", flows/(median(walls)/1e3))
		// An op's peak reads a third higher when a collection happens to end
		// just before its largest allocation burst; the lowest peak of the
		// ops is what one op needs and repeats between runs.
		res.set("heap_peak_mb", percentile(peaks, 0))
		res.set("psi_frac", float64(want.psi)/float64(want.offered))
		res.set("delivered_frac", float64(want.delivered)/float64(want.total))
		return res, nil, nil
	}

	res.samples["traced_ops"] = len(ls.verify)
	res.samples["steps"] = len(ls.steps)
	res.set("traffic.encode_ms", ms(o.inst.encode))
	res.set("traffic.decode_ms", median(ls.decode))
	res.set("traffic.materialize_ms", median(ls.materialize))
	res.set("traffic.materialize_allocs", ls.materializeAllocs)
	res.set("traffic.validate_ms", median(ls.validate))
	res.set("traffic.store_mb", mib(ls.storeBytes))
	res.set("traffic.pointer_mb", mib(ls.pointerBytes))
	res.set("core.new_ms", median(ls.coreNew))
	res.set("core.new_allocs", ls.coreNewAllocs)
	res.set("core.run_ms", median(ls.coreRun))
	res.set("core.run_allocs", ls.coreRunAllocs)
	res.set("core.step_ms_p50", median(ls.steps))
	res.set("core.step_ms_p99", percentile(ls.steps, 0.99))
	setCoreCounters(res, ls.reg, 1)
	res.set("simulate.run_ms", median(ls.simRun))
	res.set("simulate.run_allocs", ls.simAllocs)
	res.set("simulate.configs", float64(ls.simConfigs))
	res.set("verify.schedule_ms", median(ls.verify))
	res.set("schedule.configs", float64(ls.schedConfigs))
	res.set("schedule.slots_used", float64(ls.slotsUsed))
	res.set("algo.run_ms", median(runs))
	res.set("algo.cpu_s_per_kflow", median(cpus)/(float64(o.inst.flows)/1e3))
	res.set("algo.cold_run_s", cold.wall.Seconds())
	res.set("algo.run_s_min", percentile(walls, 0)/1e3)
	res.set("algo.run_s_max", percentile(walls, 1)/1e3)
	parts := (median(ls.coreNew) + median(ls.coreRun) + median(ls.simRun)) / median(runs)
	res.set("algo.sum_parts_frac", parts)
	if parts < 0.9 || parts > 1.1 {
		res.note("algo.sum_parts_frac %.3f is outside 0.9-1.1: the traced replay does not add up to the registry Run", parts)
	}
	// A traced op also verifies inside its root span; the reference op
	// does not, so the overhead compares the parts both time.
	traced := median(ls.decode) + median(ls.materialize) + median(ls.validate) + median(ls.coreNew) + median(ls.coreRun) + median(ls.simRun)
	res.set("obs.trace_overhead_frac", traced/median(walls)-1)

	rng := rand.New(rand.NewSource(rc.seed))
	res.set("traffic.shortest_route_us_p50", shortestRouteBench(o.inst.fabric, rng))
	load, err := o.decode()
	if err != nil {
		return nil, tr, err
	}
	exactMs, greedyUs := matchingBench(o.inst.fabric.N(), load, rng,
		res.values["matching.exact_calls"] > 0, res.values["matching.greedy_calls"] > 0)
	res.set("matching.exact_solve_ms_p50", exactMs)
	res.set("matching.greedy_solve_us_p50", greedyUs)
	res.set("matching.exact_share_est", res.values["matching.exact_calls"]*exactMs/median(ls.coreRun))
	if c.sharded != "" {
		if err := o.shardedRun(res, load, median(runs), want.psi); err != nil {
			res.violate("sharded cross-check: %v", err)
		}
	}
	return res, tr, nil
}

// setCoreCounters reports the planner's and matcher's work counters from a
// bench-owned registry, divided by ops (1 for one offline op, the epoch
// count for an online run, where a count per epoch is the useful figure).
func setCoreCounters(res *result, reg *obs.Registry, ops float64) {
	per := func(name string) float64 { return float64(reg.Value(name)) / ops }
	res.set("core.iterations", per("octopus_core_iterations_total"))
	res.set("core.summary_rebuilds", per("octopus_core_summary_rebuilds_total"))
	res.set("core.alpha_candidates_mean", reg.Histogram("octopus_core_alpha_candidates").Mean())
	res.set("matching.exact_calls", per("octopus_match_exact_calls_total"))
	res.set("matching.augment_rounds", per("octopus_match_augment_rounds_total"))
	res.set("matching.greedy_calls", per("octopus_match_greedy_calls_total"))
	res.set("matching.greedy_edges", per("octopus_match_greedy_edges_total"))
}

// shardedRun runs the pod-sharded planner once on the same instance. Its
// numbers inform the roadmap's sharding item and gate nothing.
func (o *offlineRun) shardedRun(res *result, load *traffic.Load, plainRunMs float64, plainPsi int64) error {
	a, p, err := algo.ParseSpec(o.cfg.sharded, algo.Params{Window: o.cfg.window, Delta: o.cfg.delta})
	if err != nil {
		return err
	}
	runtime.GC()
	hs := startHeapSampler()
	start := time.Now()
	out, err := a.Run(o.inst.fabric, load, p)
	d := time.Since(start)
	peak := hs.Stop()
	if err != nil {
		return err
	}
	if _, err := out.Verify(); err != nil {
		return err
	}
	res.set("algo.sharded_run_ms", ms(d))
	res.set("algo.sharded_speedup", plainRunMs/ms(d))
	res.set("algo.sharded_psi_ratio", float64(out.Psi)/float64(plainPsi))
	res.set("algo.sharded_heap_peak_mb", mib(peak))
	return nil
}

// shortestRouteBench times traffic.ShortestRoute between seeded node pairs
// of the fabric and returns the median in microseconds.
func shortestRouteBench(g *graph.Digraph, rng *rand.Rand) float64 {
	const pairs = 200
	samples := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		src := rng.Intn(g.N())
		dst := rng.Intn(g.N() - 1)
		if dst >= src {
			dst++
		}
		start := time.Now()
		traffic.ShortestRoute(g, src, dst)
		samples = append(samples, us(time.Since(start)))
	}
	return median(samples)
}

// matchingBench times the arena matchers alone, on the links the load's
// routes use (the workload's n and link density) under seeded weights. A
// matcher the workload never calls is not timed and reads 0.
func matchingBench(n int, load *traffic.Load, rng *rand.Rand, exact, greedy bool) (exactMs, greedyUs float64) {
	seen := make(map[[2]int]bool)
	var edges []matching.Edge
	for i := range load.Flows {
		r := load.Flows[i].Routes[0]
		for k := 0; k+1 < len(r); k++ {
			if link := [2]int{r[k], r[k+1]}; !seen[link] {
				seen[link] = true
				edges = append(edges, matching.Edge{From: r[k], To: r[k+1]})
			}
		}
	}
	var arena matching.Arena
	solve := func(reps int, fn func(int, []matching.Edge) ([]matching.Edge, int64), unit func(time.Duration) float64) float64 {
		samples := make([]float64, reps)
		for i := range samples {
			for e := range edges {
				edges[e].Weight = 1 + rng.Int63n(1<<20)
			}
			start := time.Now()
			fn(n, edges)
			samples[i] = unit(time.Since(start))
		}
		return median(samples)
	}
	if exact {
		exactMs = solve(9, arena.MaxWeightBipartite, ms)
	}
	if greedy {
		greedyUs = solve(25, arena.GreedyBipartite, us)
	}
	return exactMs, greedyUs
}
