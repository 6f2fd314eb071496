// Benchmark mode (-json): instead of regenerating figures, time full
// scheduler runs per algorithm × network size and emit the measurements as
// machine-readable JSON. The schema is versioned and append-only so
// BENCH_*.json files recorded at different commits stay comparable: a
// trajectory of these files tracks the scheduler's performance over the
// life of the repository.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
	"unsafe"

	"octopus/internal/algo"
	"octopus/internal/buildinfo"
	"octopus/internal/core"
	"octopus/internal/experiment"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
)

// benchSchema identifies the JSON layout. Bump only when a field changes
// meaning; adding fields keeps the version.
const benchSchema = "mhsbench-bench/v1"

// benchResult is one (algorithm, network size) measurement. Per-op values
// are for one full scheduling run (plan the whole window); ns_per_op is
// the minimum over reps, and allocs/bytes come from the same best rep.
type benchResult struct {
	Algo           string  `json:"algo"`
	Nodes          int     `json:"nodes"`
	Window         int     `json:"window"`
	Delta          int     `json:"delta"`
	Matcher        string  `json:"matcher"`
	Reps           int     `json:"reps"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    uint64  `json:"allocs_per_op"`
	BytesPerOp     uint64  `json:"bytes_per_op"`
	HeapPeakBytes  uint64  `json:"heap_peak_bytes,omitempty"`
	PsiPerOp       int64   `json:"psi_per_op"`
	DeliveredPerOp int     `json:"delivered_per_op"`
	BaselineNs     int64   `json:"baseline_ns_per_op,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`

	// Pod-mode annotations (-bench-pods): the fabric's pod count, the
	// spec's planner parallelism, and the instance's flow count.
	Pods  int `json:"pods,omitempty"`
	Par   int `json:"par,omitempty"`
	Flows int `json:"flows,omitempty"`

	// LatencyP50/P99 are flow-completion latency percentiles (in slots for
	// offline replays) from the flight recorder attached to the untimed
	// instrumented rep — the timed reps stay recorder-free, so ns_per_op is
	// untouched. Instances past the counter cutoff get a flight-only rep at
	// a thinned sample instead.
	LatencyP50 int64 `json:"latency_p50,omitempty"`
	LatencyP99 int64 `json:"latency_p99,omitempty"`

	// Work counters from one extra, untimed, instrumented run of the same
	// instance (the timed reps stay uninstrumented so ns_per_op remains
	// comparable with pre-observability bench files). Zero-valued counters
	// are omitted — non-core algorithms report none.
	Iterations      int64 `json:"iterations,omitempty"`
	ExactCalls      int64 `json:"match_exact_calls,omitempty"`
	GreedyCalls     int64 `json:"match_greedy_calls,omitempty"`
	AugmentRounds   int64 `json:"match_augment_rounds,omitempty"`
	ArenaReuses     int64 `json:"arena_reuses,omitempty"`
	ArenaGrows      int64 `json:"arena_grows,omitempty"`
	SummaryRebuilds int64 `json:"summary_rebuilds,omitempty"`
	SimConfigs      int64 `json:"sim_configs,omitempty"`
}

// benchFile is the top-level -json document.
type benchFile struct {
	Schema  string        `json:"schema"`
	Scale   string        `json:"scale"`
	Seed    int64         `json:"seed"`
	Version string        `json:"version,omitempty"`
	Host    *benchHost    `json:"host,omitempty"`
	PodLoad *podLoadStats `json:"pod_load,omitempty"`
	Results []benchResult `json:"results"`
}

// benchHost stamps the machine a bench file was recorded on, so trajectory
// comparisons across BENCH_*.json files can tell code changes from
// hardware changes.
type benchHost struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
}

func hostInfo() *benchHost {
	h := &benchHost{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if name, err := os.Hostname(); err == nil {
		h.Hostname = name
	}
	return h
}

// podLoadStats compares the columnar flow store against the pointer-rich
// per-flow representation for the pod-mode instance: resident heap bytes
// holding the same flows each way, counted from the realized layouts (the
// store's column capacities vs per-flow structs, route headers, and node
// ints), so the comparison is deterministic across runs.
type podLoadStats struct {
	Flows        int    `json:"flows"`
	Packets      int64  `json:"packets"`
	StoreBytes   uint64 `json:"store_bytes"`
	PointerBytes uint64 `json:"pointer_bytes"`
}

func matcherName(m core.Matcher) string {
	if m == core.MatcherGreedy {
		return "greedy"
	}
	return "exact"
}

// benchPods configures the pod-structured bench mode: a graph.Pods fabric
// with the matching skewed pod workload scaled to roughly targetFlows
// flows, instead of the complete-fabric synthetic load.
type benchPods struct {
	pods        int
	targetFlows int
}

// runBench times full runs of the requested algorithm specs at each node
// count and writes the JSON document to path ('-' for stdout). When
// baselinePath names a previous -json output, matching entries gain
// baseline_ns_per_op and speedup fields and a human-readable comparison
// goes to stderr.
func runBench(sc experiment.Scale, algoList string, nodeList []int, reps int, path, baselinePath string, pods benchPods) error {
	if reps < 1 {
		reps = 1
	}
	if len(nodeList) == 0 {
		nodeList = []int{sc.Nodes}
	}
	specs := splitSpecs(algoList)
	doc := benchFile{
		Schema:  benchSchema,
		Scale:   sc.Name,
		Seed:    sc.Seed,
		Version: buildinfo.Version(),
		Host:    hostInfo(),
	}
	base := algo.Params{Window: sc.Window, Delta: sc.Delta, Matcher: sc.Matcher, Seed: sc.Seed}
	for _, n := range nodeList {
		g, load, stats, err := benchInstance(n, sc, pods)
		if err != nil {
			return fmt.Errorf("n=%d: %v", n, err)
		}
		if stats != nil {
			doc.PodLoad = stats // keep the largest size's comparison
			fmt.Fprintf(os.Stderr, "load  n=%-7d %d flows, %d packets: store %.1f MiB, pointer structs %.1f MiB (%.2fx)\n",
				n, stats.Flows, stats.Packets,
				float64(stats.StoreBytes)/(1<<20), float64(stats.PointerBytes)/(1<<20),
				float64(stats.PointerBytes)/float64(stats.StoreBytes))
		}
		for _, spec := range specs {
			a, p, err := parseBenchSpec(spec, base)
			if err != nil {
				return err
			}
			r, err := benchOne(a, g, load, p, reps)
			if err != nil {
				return fmt.Errorf("%s n=%d: %v", spec, n, err)
			}
			r.Algo = spec
			r.Pods = pods.pods
			r.Par = p.Parallelism
			if pods.pods > 0 {
				r.Flows = len(load.Flows)
			}
			doc.Results = append(doc.Results, r)
			fmt.Fprintf(os.Stderr, "bench %-32s n=%-7d %10.3fms/op  %8d allocs/op  heap-peak %7.1f MiB  psi=%d\n",
				spec, n, float64(r.NsPerOp)/1e6, r.AllocsPerOp,
				float64(r.HeapPeakBytes)/(1<<20), r.PsiPerOp)
		}
	}
	if baselinePath != "" {
		if err := annotateBaseline(&doc, baselinePath); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// splitSpecs splits the -bench-algos list on commas while keeping the
// commas inside a spec's option list: a fragment with a key=value shape
// and no algorithm name of its own continues the previous spec
// ("octopus-sharded:pods=4,par=2,octopus" is two specs).
func splitSpecs(list string) []string {
	var specs []string
	for _, frag := range strings.Split(list, ",") {
		frag = strings.TrimSpace(frag)
		if frag == "" {
			continue
		}
		if len(specs) > 0 && strings.Contains(frag, "=") && !strings.Contains(frag, ":") &&
			strings.Contains(specs[len(specs)-1], ":") {
			specs[len(specs)-1] += "," + frag
			continue
		}
		specs = append(specs, frag)
	}
	return specs
}

// parseBenchSpec resolves one -bench-algos entry with the full registry
// spec grammar (name[:key=value,...]), so sharded runs can be requested as
// octopus-sharded:pods=32,par=8.
func parseBenchSpec(spec string, base algo.Params) (algo.Algorithm, algo.Params, error) {
	a, p, err := algo.ParseSpec(spec, base)
	if err != nil {
		return nil, base, fmt.Errorf("bench spec: %w", err)
	}
	return a, p, nil
}

// benchInstance builds the (fabric, load) pair for one node count. The
// load is regenerated per size from the scale seed, so two mhsbench builds
// measure identical work. Pod mode also measures the columnar-store vs
// pointer-struct representation cost of the same flows.
func benchInstance(n int, sc experiment.Scale, pods benchPods) (*graph.Digraph, *traffic.Load, *podLoadStats, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	if pods.pods <= 0 {
		g := graph.Complete(n)
		load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(n, sc.Window), rng)
		return g, load, nil, err
	}
	podSize, err := graph.PodDims(n, pods.pods)
	if err != nil {
		return nil, nil, nil, err
	}
	pp := traffic.DefaultPodParams(pods.pods, podSize, sc.Window)
	if pods.targetFlows > 0 {
		// Scale the per-pod flow counts to the requested total, keeping the
		// 1:3 large:small mix, and keep every flow non-empty so the
		// instance really has targetFlows flows.
		perPod := max(4, pods.targetFlows/pods.pods)
		pp.LargePerPod = perPod / 4
		pp.SmallPerPod = perPod - perPod/4
		pp.LargeTotal = max(pp.LargeTotal, pp.LargePerPod)
		pp.SmallTotal = max(pp.SmallTotal, pp.SmallPerPod)
	}
	store, err := traffic.PodSynthetic(pp, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	stats := &podLoadStats{
		Flows:      store.Len(),
		Packets:    store.TotalPackets(),
		StoreBytes: store.Bytes(),
	}
	// The pointer-struct baseline: the same flows held as one allocation
	// per flow plus one per route's node slice — the pre-columnar
	// representation. Counted from slice-header arithmetic rather than
	// measured with ReadMemStats deltas, which are swamped by unrelated
	// frees (sync.Pool arenas dying mid-measurement) on a busy runtime.
	var flowZero traffic.Flow
	var routeZero traffic.Route
	stats.PointerBytes = uint64(unsafe.Sizeof(flowZero))*uint64(store.Len()) +
		uint64(unsafe.Sizeof(routeZero))*uint64(store.NumRoutes()) +
		uint64(unsafe.Sizeof(int(0)))*uint64(store.NumRouteNodes())
	return pp.Fabric(), store.Materialize(nil), stats, nil
}

// heapSampler polls the runtime's live heap-object bytes while a run is in
// flight, recording the peak. runtime/metrics reads are cheap (no
// stop-the-world), so sampling does not distort ns_per_op.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > hs.peak {
				hs.peak = v
			}
			select {
			case <-hs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// Stop ends sampling and returns the observed peak.
func (hs *heapSampler) Stop() uint64 {
	close(hs.stop)
	<-hs.done
	return hs.peak
}

// benchOne runs one algorithm on one instance reps times and keeps the
// fastest rep (with the heap peak observed during that rep).
func benchOne(a algo.Algorithm, g *graph.Digraph, load *traffic.Load, p algo.Params, reps int) (benchResult, error) {
	res := benchResult{
		Algo: a.Name(), Nodes: g.N(), Window: p.Window, Delta: p.Delta,
		Matcher: matcherName(p.Matcher), Reps: reps,
	}
	var m0, m1 runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		hs := startHeapSampler()
		start := time.Now()
		out, err := a.Run(g, load, p)
		elapsed := time.Since(start)
		peak := hs.Stop()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return benchResult{}, err
		}
		if rep == 0 || elapsed.Nanoseconds() < res.NsPerOp {
			res.NsPerOp = elapsed.Nanoseconds()
			res.AllocsPerOp = m1.Mallocs - m0.Mallocs
			res.BytesPerOp = m1.TotalAlloc - m0.TotalAlloc
			res.HeapPeakBytes = peak
		}
		res.PsiPerOp = out.Psi
		res.DeliveredPerOp = out.Delivered
	}
	// One extra untimed rep with instrumentation to report work counters
	// and flow-completion latency percentiles. Past the cutoff the full
	// counter rep would double wall time for counters nobody reads at that
	// scale, so only the flight recorder runs, at a thinned deterministic
	// sample — percentiles survive, ns_per_op stays untouched either way.
	if len(load.Flows) > 200_000 {
		rec := flight.New(flight.Config{Sample: 1024})
		flight.AdmitLoad(rec, load, 0)
		p.Obs = nil
		p.Flight = rec
		if _, err := a.Run(g, load, p); err != nil {
			return benchResult{}, err
		}
		res.LatencyP50 = rec.CompletionQuantile(0.50)
		res.LatencyP99 = rec.CompletionQuantile(0.99)
		return res, nil
	}
	reg := obs.NewRegistry()
	rec := flight.New(flight.Config{})
	flight.AdmitLoad(rec, load, 0)
	p.Obs = &obs.Observer{Metrics: reg}
	p.Flight = rec
	if _, err := a.Run(g, load, p); err != nil {
		return benchResult{}, err
	}
	res.LatencyP50 = rec.CompletionQuantile(0.50)
	res.LatencyP99 = rec.CompletionQuantile(0.99)
	res.Iterations = reg.Value("octopus_core_iterations_total")
	res.ExactCalls = reg.Value("octopus_match_exact_calls_total")
	res.GreedyCalls = reg.Value("octopus_match_greedy_calls_total")
	res.AugmentRounds = reg.Value("octopus_match_augment_rounds_total")
	res.ArenaReuses = reg.Value("octopus_match_arena_reuses_total")
	res.ArenaGrows = reg.Value("octopus_match_arena_grows_total")
	res.SummaryRebuilds = reg.Value("octopus_core_summary_rebuilds_total")
	res.SimConfigs = reg.Value("octopus_sim_configs_total")
	return res, nil
}

// annotateBaseline joins a previous bench document on
// (algo, nodes, window, delta, matcher) and records the speedup.
func annotateBaseline(doc *benchFile, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %v", path, err)
	}
	if !strings.HasPrefix(base.Schema, "mhsbench-bench/") {
		return fmt.Errorf("baseline %s: unrecognized schema %q", path, base.Schema)
	}
	for i := range doc.Results {
		r := &doc.Results[i]
		for _, b := range base.Results {
			if b.Algo == r.Algo && b.Nodes == r.Nodes && b.Window == r.Window &&
				b.Delta == r.Delta && b.Matcher == r.Matcher {
				r.BaselineNs = b.NsPerOp
				if r.NsPerOp > 0 {
					r.Speedup = float64(b.NsPerOp) / float64(r.NsPerOp)
				}
				fmt.Fprintf(os.Stderr, "bench %-16s n=%-4d %.2fx vs baseline (%.3fms -> %.3fms)\n",
					r.Algo, r.Nodes, r.Speedup, float64(b.NsPerOp)/1e6, float64(r.NsPerOp)/1e6)
				break
			}
		}
	}
	return nil
}
