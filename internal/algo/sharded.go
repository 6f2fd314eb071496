package algo

import (
	"fmt"
	"time"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/par"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// shardedAlgo is octopus-sharded: pod-decomposed Octopus for fabrics whose
// nodes split into contiguous pods (graph.Pods or any fabric with the same
// node numbering). Pod-local flows are scheduled by independent Octopus
// core instances — one per pod, fanned out across par workers, each with
// its own matching arena — whose configurations merge into one global
// sequence (pods are node-disjoint, so the union of per-pod matchings is a
// matching). A deterministic cross-pod reconciliation pass then schedules
// the inter-pod flows on the whole fabric in the window that remains.
//
// With pods=1 the decomposition is the identity: the run delegates to the
// exact plain-octopus pipeline and is pinned bit-identical to it by the
// differential fingerprint harness. With pods>1 the merged schedule is
// quality-compared (ψ) against unsharded octopus instead — the merge
// stretches pod configurations to the slowest pod's α and the window split
// between the local and reconciliation phases is heuristic, so ψ drifts
// within a documented bound rather than matching exactly (DESIGN.md §16).
type shardedAlgo struct {
	octopus *coreAlgo // the pods=1 delegate and per-shard planner config
}

func octopusShardedAlgo() Algorithm {
	return &shardedAlgo{octopus: octopusAlgo().(*coreAlgo)}
}

func (a *shardedAlgo) Name() string { return "octopus-sharded" }
func (a *shardedAlgo) Describe() string {
	return "Pod-sharded Octopus: per-pod parallel planning (pods=N, par=K) merged with a cross-pod reconciliation pass; pods=1 is bit-identical to octopus"
}
func (a *shardedAlgo) Kind() Kind { return Offline }

func (a *shardedAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	pods := p.Pods
	if pods <= 1 {
		// Identity decomposition: run the exact plain-octopus pipeline so
		// the outcome (schedule, claim, measured metrics) is bit-identical.
		out, err := a.octopus.Run(g, load, p)
		if err != nil {
			return nil, err
		}
		out.Algo = a.Name()
		return out, nil
	}
	if p.MultiHop {
		return nil, fmt.Errorf("algo: octopus-sharded does not support multihop")
	}
	podSize, err := graph.PodDims(g.N(), pods)
	if err != nil {
		return nil, err
	}
	opt := baseOptions(p)
	if err := load.Validate(g); err != nil {
		return nil, err
	}

	// Partition: a flow is pod-local iff every node of every candidate
	// route stays inside one pod; everything else reconciles globally.
	shardIdx := make([][]int, pods)
	var crossIdx []int
	intraHops, crossHops, crossPackets := 0, 0, 0
	for i := range load.Flows {
		f := &load.Flows[i]
		pod, local := flowPod(f, podSize)
		if local {
			shardIdx[pod] = append(shardIdx[pod], i)
			intraHops += f.Size * f.Routes[0].Hops()
		} else {
			crossIdx = append(crossIdx, i)
			crossHops += f.Size * f.Routes[0].Hops()
			crossPackets += f.Size
		}
	}

	// Window split: the local phase gets the intra-pod share of the
	// packet-hop demand, the reconciliation pass the rest. Both phases
	// need at least one configuration's worth of slots to be useful.
	localWindow := p.Window
	if crossHops > 0 && intraHops+crossHops > 0 {
		localWindow = p.Window * intraHops / (intraHops + crossHops)
	}
	if intraHops == 0 {
		localWindow = 0
	}

	var merged schedule.Schedule
	merged.Delta = p.Delta
	planned := PlanInfo{}
	var results []*core.Result
	var planNs []int64
	if localWindow > p.Delta {
		shardOpt := opt
		shardOpt.Window = localWindow
		results, planNs, err = runShards(g, load, shardIdx, podSize, shardOpt, p.Parallelism, opt.Obs.Enabled())
		if err != nil {
			return nil, err
		}
		mergeShards(&merged, results, localWindow, p.Delta, &planned)
	}

	// Per-pod observability: the workers only stamp wall time (and only when
	// the observer is on); metrics and trace events are emitted here, after
	// the barrier, in pod order, so the journal is deterministic at any par.
	// Strictly read-only — the sharded plan is bit-identical with obs off.
	if opt.Obs.Enabled() {
		podPlan := opt.Obs.Histogram("octopus_sharded_pod_plan_nanos")
		podPsi := opt.Obs.Histogram("octopus_sharded_pod_psi")
		podsPlanned := opt.Obs.Counter("octopus_sharded_pods_planned_total")
		tracer := opt.Obs.Tracer()
		for pod, r := range results {
			if r == nil {
				continue
			}
			podsPlanned.Inc()
			podPlan.Observe(planNs[pod])
			podPsi.Observe(r.Psi)
			tracer.Emit("sharded.pod",
				obs.I("pod", int64(pod)),
				obs.I("flows", int64(len(shardIdx[pod]))),
				obs.I("psi", r.Psi),
				obs.I("delivered", int64(r.Delivered)),
				obs.I("configs", int64(len(r.Schedule.Configs))),
				obs.I("plan_ns", planNs[pod]),
			)
		}
		opt.Obs.Counter("octopus_sharded_cross_flows_total").Add(int64(len(crossIdx)))
		opt.Obs.Counter("octopus_sharded_cross_packets_total").Add(int64(crossPackets))
	}

	// Reconciliation: schedule the inter-pod flows over the whole fabric
	// in the residual window, appending to the merged sequence.
	if len(crossIdx) > 0 {
		remaining := p.Window - merged.Cost()
		if remaining > p.Delta {
			crossLoad := subsetLoad(load, crossIdx)
			crossOpt := opt
			crossOpt.Window = remaining
			var crossStart time.Time
			if opt.Obs.Enabled() {
				crossStart = time.Now()
			}
			s, err := core.New(g, crossLoad, crossOpt)
			if err != nil {
				return nil, err
			}
			res, err := s.Run()
			if err != nil {
				return nil, err
			}
			merged.Configs = append(merged.Configs, res.Schedule.Configs...)
			planned.Iterations += res.Iterations
			planned.Delivered += res.Delivered
			planned.Hops += res.Hops
			planned.Psi += res.Psi
			if opt.Obs.Enabled() {
				opt.Obs.Tracer().Emit("sharded.cross",
					obs.I("flows", int64(len(crossIdx))),
					obs.I("packets", int64(crossPackets)),
					obs.I("window", int64(remaining)),
					obs.I("psi", res.Psi),
					obs.I("delivered", int64(res.Delivered)),
					obs.I("configs", int64(len(res.Schedule.Configs))),
					obs.I("plan_ns", int64(time.Since(crossStart))),
				)
			}
		}
	}

	out := &Outcome{
		Algo:      a.Name(),
		Fabric:    g,
		Load:      load,
		Schedule:  &merged,
		Plan:      &planned,
		Reconfigs: len(merged.Configs),
		// No Claim: stretching pod configurations to the merged α means
		// the independent replay may deliver more than the per-pod plans
		// booked, so the simulator's measurement is authoritative and the
		// schedule is held to the structural invariants only.
		VerifyOpt: verify.Options{
			Window:    p.Window,
			Ports:     opt.Ports,
			Epsilon64: opt.Epsilon64,
		},
	}
	sim, err := simulate.Run(g, load, &merged, simulate.Options{
		Window:    p.Window,
		Ports:     opt.Ports,
		Epsilon64: opt.Epsilon64,
		Obs:       opt.Obs,
		Flight:    p.Flight,
	})
	if err != nil {
		return nil, err
	}
	out.Delivered = sim.Delivered
	out.Total = sim.TotalPackets
	out.Hops = sim.Hops
	out.Psi = sim.Psi
	out.ActiveLinkSlots = sim.ActiveLinkSlots
	out.ConfigsReplayed = sim.Configs
	out.SlotsUsed = sim.SlotsUsed
	out.Measured = true
	return out, nil
}

// CoreOptions implements CorePlanner for the pods=1 identity only, where
// the sharded algorithm is exactly plain octopus; with pods>1 the
// algorithm is not a single core run and cannot drive core pipelines.
func (a *shardedAlgo) CoreOptions(load *traffic.Load, p Params) (*traffic.Load, core.Options, error) {
	if p.Pods > 1 {
		return nil, core.Options{}, fmt.Errorf("algo: octopus-sharded with pods=%d cannot drive core pipelines (-faults); use pods=1", p.Pods)
	}
	return a.octopus.CoreOptions(load, p)
}

// flowPod reports which pod wholly contains every route of f, if any.
func flowPod(f *traffic.Flow, podSize int) (int, bool) {
	pod := graph.PodOf(f.Src, podSize)
	for _, r := range f.Routes {
		for _, v := range r {
			if graph.PodOf(v, podSize) != pod {
				return -1, false
			}
		}
	}
	return pod, true
}

// subsetLoad materializes the selected flows as a load with shared backing
// (the Flow values are copied headers; route slices alias the input, which
// schedulers never mutate).
func subsetLoad(load *traffic.Load, idx []int) *traffic.Load {
	flows := make([]traffic.Flow, len(idx))
	for k, i := range idx {
		flows[k] = load.Flows[i]
	}
	return &traffic.Load{Flows: flows}
}

// runShards plans every non-empty pod shard with its own Octopus core
// instance (own matching arena, own queue summaries) over the pod-local
// subfabric, on workers goroutines (0: GOMAXPROCS). Results land in pod
// order, so the outcome is identical at any parallelism. With timed set,
// each pod's wall-clock plan time lands in planNs (pod-indexed); untimed
// runs never call the clock, so the cold path stays syscall-free.
func runShards(g *graph.Digraph, load *traffic.Load, shardIdx [][]int, podSize int, opt core.Options, workers int, timed bool) ([]*core.Result, []int64, error) {
	results := make([]*core.Result, len(shardIdx))
	planNs := make([]int64, len(shardIdx))
	errs := make([]error, len(shardIdx))
	// Per-shard planning must not itself fan out: the shard is the unit of
	// parallelism here. The shard planners run with the observer detached —
	// their interleaved emissions would be racy and order-unstable; the
	// caller emits the per-pod summaries in pod order instead.
	opt.Parallelism = 1
	opt.Obs = nil
	par.For(max(workers, 0), len(shardIdx), func(_, pod int) {
		if len(shardIdx[pod]) == 0 {
			return
		}
		var start time.Time
		if timed {
			start = time.Now()
		}
		lo, hi := pod*podSize, (pod+1)*podSize
		sub := g.Subgraph(func(e graph.Edge) bool {
			return e.From >= lo && e.From < hi && e.To >= lo && e.To < hi
		})
		s, err := core.New(sub, subsetLoad(load, shardIdx[pod]), opt)
		if err == nil {
			results[pod], err = s.Run()
		}
		errs[pod] = err
		if timed {
			planNs[pod] = int64(time.Since(start))
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, planNs, nil
}

// mergeShards zips the per-pod configuration sequences into one global
// sequence: merged configuration k is the union of every pod's k-th
// configuration, running for the longest pod α (pods whose own α was
// shorter simply idle their links once their queued packets drain; the
// simulator measures actual delivery). The merged sequence is truncated
// to the local-phase window budget, shrinking the final α if needed, so
// the global schedule always fits even when pods disagree about pacing.
// Plan bookkeeping is accumulated as a lower bound.
func mergeShards(out *schedule.Schedule, results []*core.Result, window, delta int, planned *PlanInfo) {
	maxConfigs := 0
	for _, r := range results {
		if r == nil {
			continue
		}
		planned.Iterations += r.Iterations
		planned.Delivered += r.Delivered
		planned.Hops += r.Hops
		planned.Psi += r.Psi
		if len(r.Schedule.Configs) > maxConfigs {
			maxConfigs = len(r.Schedule.Configs)
		}
	}
	used := 0
	for k := 0; k < maxConfigs; k++ {
		alpha := 0
		var links []graph.Edge
		for _, r := range results {
			if r == nil || k >= len(r.Schedule.Configs) {
				continue
			}
			cfg := r.Schedule.Configs[k]
			if cfg.Alpha > alpha {
				alpha = cfg.Alpha
			}
			links = append(links, cfg.Links...)
		}
		if alpha == 0 || len(links) == 0 {
			break
		}
		if used+delta+alpha > window {
			alpha = window - used - delta
			if alpha <= 0 {
				break
			}
		}
		out.Configs = append(out.Configs, schedule.Configuration{Links: links, Alpha: alpha})
		used += alpha + delta
	}
}
