package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's whole vocabulary: BENCHMARK.json repeats them (a test keeps
// the two in step), an untraced run reports every end-to-end metric and a
// traced run every per-layer metric. A per-layer metric of a layer the
// workload never enters reads 0: no calls, no time.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"flows_per_s", "flows/s"},
	{"heap_peak_mb", "MiB"},
	{"psi_frac", "fraction"},
	{"delivered_frac", "fraction"},
}

var perLayer = []metricDef{
	{"traffic.encode_ms", "ms"},
	{"traffic.decode_ms", "ms"},
	{"traffic.materialize_ms", "ms"},
	{"traffic.materialize_allocs", "count"},
	{"traffic.validate_ms", "ms"},
	{"traffic.store_mb", "MiB"},
	{"traffic.pointer_mb", "MiB"},
	{"traffic.shortest_route_us_p50", "us"},

	{"core.new_ms", "ms"},
	{"core.new_allocs", "count"},
	{"core.run_ms", "ms"},
	{"core.run_allocs", "count"},
	{"core.step_ms_p50", "ms"},
	{"core.step_ms_p99", "ms"},
	{"core.iterations", "count"},
	{"core.summary_rebuilds", "count"},
	{"core.alpha_candidates_mean", "count"},

	{"matching.exact_calls", "count"},
	{"matching.augment_rounds", "count"},
	{"matching.greedy_calls", "count"},
	{"matching.greedy_edges", "count"},
	{"matching.exact_solve_ms_p50", "ms"},
	{"matching.greedy_solve_us_p50", "us"},
	{"matching.exact_share_est", "fraction"},

	{"simulate.run_ms", "ms"},
	{"simulate.run_allocs", "count"},
	{"simulate.configs", "count"},
	{"verify.schedule_ms", "ms"},
	{"schedule.configs", "count"},
	{"schedule.slots_used", "count"},

	{"algo.run_ms", "ms"},
	{"algo.cpu_s_per_kflow", "s"},
	{"algo.cold_run_s", "s"},
	{"algo.run_s_min", "s"},
	{"algo.run_s_max", "s"},
	{"algo.sum_parts_frac", "fraction"},
	{"algo.sharded_run_ms", "ms"},
	{"algo.sharded_speedup", "ratio"},
	{"algo.sharded_psi_ratio", "ratio"},
	{"algo.sharded_heap_peak_mb", "MiB"},

	{"engine.submit_us_p50", "us"},
	{"engine.plan_next_ms_p50", "ms"},
	{"engine.plan_next_ms_p99", "ms"},
	{"engine.commit_ms_p50", "ms"},
	{"engine.commit_ms_p99", "ms"},
	{"engine.cpu_s_per_kflow", "s"},
	{"engine.epoch_ms_p90", "ms"},
	{"engine.epoch_ms_p99", "ms"},
	{"engine.core_replan_ms_p50", "ms"},
	{"engine.bookkeeping_ms_p50", "ms"},
	{"engine.plan_growth", "ratio"},
	{"engine.commit_growth", "ratio"},
	{"engine.live_heap_mb_q1", "MiB"},
	{"engine.live_heap_mb_end", "MiB"},
	{"engine.live_heap_growth", "ratio"},
	{"engine.backlog_pkts_mean", "count"},
	{"engine.backlog_flows_mean", "count"},
	{"engine.allocs_per_epoch", "count"},
	{"engine.cancelled_flows", "count"},
	{"engine.conservation_violations", "count"},

	{"daemon.submit_ms_p50", "ms"},
	{"daemon.submit_ms_p99", "ms"},
	{"daemon.completion_ms_p90", "ms"},
	{"daemon.completion_ms_p99", "ms"},
	{"daemon.cpu_s_per_kflow", "s"},
	{"daemon.handler_submit_us_p50", "us"},
	{"daemon.status_ms_p50", "ms"},
	{"daemon.metrics_scrape_ms_p50", "ms"},
	{"daemon.epoch_stretch", "ratio"},
	{"daemon.overrun_frac", "fraction"},
	{"daemon.refused_frac", "fraction"},
	{"daemon.slo_miss_frac", "fraction"},
	{"daemon.generator_late_ms_p99", "ms"},
	{"daemon.generator_late_ms_max", "ms"},
	{"daemon.sojourn_ms_mean", "ms"},
	{"daemon.queued_pkts_mean", "count"},
	{"daemon.backlog_pkts_mean", "count"},
	{"daemon.reported_plan_ms_p50", "ms"},
	{"daemon.drain_ms", "ms"},

	{"flight.events_per_flow", "count"},
	{"flight.retained_frac", "fraction"},
	{"obs.trace_overhead_frac", "fraction"},
}

// metricValue is one reported metric, in the shape of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env stamps the machine and build a report was measured on, so a
// comparison can tell a code change from a host change.
type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname"`
	Commit     string `json:"commit"`
}

func stampEnv() env {
	e := env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Commit: "unknown"}
	e.Hostname, _ = os.Hostname() // an unnamed host is reported as ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	// `go run` does not stamp the revision; ask git, which fails harmlessly
	// in a checkout that is not a repository.
	if e.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// report is one run of one workload: what out/<workload>.json holds and
// what -compare reads back. Samples states how many operations each timing
// was taken over.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Network    string                 `json:"network,omitempty"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	Notes      []string               `json:"notes,omitempty"`
	Samples    map[string]int         `json:"samples"`
	Metrics    map[string]metricValue `json:"metrics"`
	Env        env                    `json:"env"`
}

// result collects what a workload measured before it becomes a report.
type result struct {
	values     map[string]float64
	samples    map[string]int
	attempted  int
	failed     int
	violations []string
	notes      []string
	network    string
}

func newResult() *result {
	return &result{values: make(map[string]float64), samples: make(map[string]int)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// maxViolations bounds the violations a report lists; an overloaded daemon
// can refuse thousands of requests and one line each helps nobody.
const maxViolations = 20

// violate records a broken correctness check; any violation fails the run.
func (r *result) violate(format string, args ...any) {
	switch {
	case len(r.violations) < maxViolations:
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	case len(r.violations) == maxViolations:
		r.violations = append(r.violations, "further violations are not listed")
	}
}

// note records something a reader should know that does not fail the run.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// report turns the result into the run's report: the end-to-end list for
// an untraced run, the per-layer list for a traced one. A metric the
// vocabulary does not list, a missing end-to-end metric, and a value that
// is not finite are benchmark bugs and are reported as violations.
func (r *result) report(workload string, rc runConfig) *report {
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	rep := &report{
		Workload: workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Network: r.network,
		Attempted: r.attempted, Failed: r.failed, Samples: r.samples,
		Metrics: make(map[string]metricValue, len(defs)), Env: stampEnv(),
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := r.values[d.Name]
		if !ok && !rc.trace {
			r.violate("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.violate("metric %s is not finite", d.Name)
			v = 0
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range r.values {
		if !known[name] {
			r.violate("metric %s is not in the benchmark's vocabulary", name)
		}
	}
	if rep.Attempted < 1 {
		r.violate("no operation was attempted")
		rep.Attempted = 1
	}
	rep.Violations, rep.Notes = r.violations, r.notes
	rep.Correct = len(r.violations) == 0 && r.failed == 0
	return rep
}

// print writes every metric as "name value unit", then the violations,
// then the one-line result object the benchmark contract asks for.
func (rep *report) print(w io.Writer) error {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# workload %s seed %d trace %v (%s, %d CPUs, GOMAXPROCS %d, host %q, commit %s)\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.GoMaxProcs, rep.Env.Hostname, rep.Env.Commit)
	if rep.Network != "" {
		fmt.Fprintf(w, "# network: %s\n", rep.Network)
	}
	fmt.Fprintf(w, "# samples: %v\n", rep.Samples)
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %.6g %s\n", d.Name, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "NOTE %s: %s\n", rep.Workload, n)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "VIOLATION %s: %s\n", rep.Workload, v)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// write stores the report as one line of JSON, so that reports of several
// runs can be concatenated into the set files -compare reads.
func (rep *report) write(dir string) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+".json"), append(data, '\n'), 0o644)
}
