package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/schedule"
)

// updateTrace regenerates testdata/golden/trace.jsonl from the current
// build; use only on an intended trace-schema change.
var updateTrace = flag.Bool("update-trace", false, "rewrite the trace golden file")

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	line := out.String()
	if !strings.HasPrefix(line, "mhsim ") || strings.TrimSpace(strings.TrimPrefix(line, "mhsim ")) == "" {
		t.Fatalf("-version printed %q, want \"mhsim <version>\"", line)
	}
}

// TestMetricsAndTraceOut runs one small scenario with both file sinks and
// checks the artifacts: the metrics snapshot is Prometheus text carrying the
// core counters, the decision trace decodes into the expected event kinds
// with strictly increasing sequence numbers, and the schedule rebuilt from
// its sched / sched.config events is the one -save-schedule wrote.
func TestMetricsAndTraceOut(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.txt")
	trace := filepath.Join(dir, "trace.jsonl")
	saved := filepath.Join(dir, "schedule.json")
	var out, errOut bytes.Buffer
	args := []string{"-n", "8", "-window", "120", "-delta", "4", "-seed", "3",
		"-algo", "octopus", "-metrics-out", metrics, "-trace-out", trace, "-save-schedule", saved}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wrote metrics snapshot to", "trace events to"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}

	msnap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE octopus_core_iterations_total counter",
		"octopus_core_iterations_total ",
		"octopus_sim_delivered_total ",
	} {
		if !strings.Contains(string(msnap), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.DecodeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty decision trace")
	}
	kinds := map[string]int{}
	var fromTrace schedule.Schedule
	for i, r := range recs {
		if r.Seq != int64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i)
		}
		kinds[r.Ev]++
		switch r.Ev {
		case "sched":
			d, ok := r.Int("delta")
			if !ok {
				t.Fatalf("sched event (seq %d) missing delta", r.Seq)
			}
			fromTrace.Delta = int(d)
		case "sched.config":
			alpha, okA := r.Int("alpha")
			pairs, okL := r.IntPairs("links")
			if !okA || !okL {
				t.Fatalf("sched.config event (seq %d) missing alpha or links", r.Seq)
			}
			links := make([]graph.Edge, len(pairs))
			for j, p := range pairs {
				links[j] = graph.Edge{From: p[0], To: p[1]}
			}
			fromTrace.Configs = append(fromTrace.Configs, schedule.Configuration{Alpha: int(alpha), Links: links})
		}
	}
	want, err := schedule.LoadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Configs) == 0 || !reflect.DeepEqual(&fromTrace, want) {
		t.Fatalf("schedule rebuilt from the trace differs from the saved one:\n%+v\n%+v", fromTrace, want)
	}
	for _, want := range []string{"core.iter", "core.done", "sched", "sched.config", "sim.config", "sim.done"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q events (kinds: %v)", want, kinds)
		}
	}
	if kinds["sched.config"] != kinds["sim.config"] {
		t.Errorf("planned %d configs but simulated %d", kinds["sched.config"], kinds["sim.config"])
	}
}

// TestGoldenTrace pins the JSONL decision-trace schema byte for byte on a
// small deterministic run. The trace deliberately carries no wall-clock
// values, so the file is stable across machines; regenerate it (go test
// -run TestGoldenTrace -update-trace) only on an intended schema change.
// A field that changes meaning also bumps obs.TraceVersion; an added field
// or event kind keeps it.
func TestGoldenTrace(t *testing.T) {
	golden := filepath.Join("testdata", "golden", "trace.jsonl")
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-n", "8", "-window", "120", "-delta", "4", "-seed", "3",
		"-algo", "octopus", "-trace-out", trace}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if *updateTrace {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("decision trace drifted from golden file:\n--- want\n%s--- got\n%s", clip(want), clip(got))
	}
	// Every line must be a v1 envelope — the versioned-schema contract
	// downstream consumers parse by.
	for i, line := range bytes.Split(bytes.TrimRight(got, "\n"), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"v":1,"seq":`)) {
			t.Fatalf("line %d does not open with the v1 envelope: %s", i+1, line)
		}
	}
}

// clip truncates long golden diffs to keep failures readable.
func clip(b []byte) string {
	const n = 2000
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "...\n"
}
