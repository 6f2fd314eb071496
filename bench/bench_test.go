package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"octopus/internal/core"
)

// tinyArrivals is the online workloads' arrival process at a size that
// runs in milliseconds.
func tinyArrivals() arrivalConfig {
	return arrivalConfig{
		nodes: 16, degree: 4,
		core:          core.Options{Window: 100, Delta: 5, Matcher: core.MatcherGreedy},
		flowsPerEpoch: 6, cancelOneIn: 10,
	}
}

func tinyDaemon() daemonConfig {
	c := daemonHTTP()
	c.arrivals, c.epoch, c.pollEvery = tinyArrivals(), 10*time.Millisecond, 2*time.Millisecond
	return c
}

// tinyWorkloads are the four workloads, same code, at sizes built here.
func tinyWorkloads() []workload {
	return []workload{
		{"fig4-exact", fig4Exact(16, 200, 5).run},
		{"pods-flows", podsFlows(4, 4, 64, 2, 400).run},
		{"engine-churn", churnConfig{arrivals: tinyArrivals(), epochsPerSecond: 400}.run},
		{"daemon-http", tinyDaemon().run},
	}
}

func TestContractMatchesVocabulary(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	ws := workloads()
	if len(c.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(ws))
	}
	for i, w := range c.Workloads {
		if w.Name != ws[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, ws[i].name)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, trace := range []bool{false, true} {
				rc := runConfig{seed: 1, seconds: 0.4, trace: trace, setups: 2, outDir: dir}
				res, tr, err := w.run(rc)
				if err != nil {
					t.Fatal(err)
				}
				rep := res.report(w.name, rc)
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d violations=%v", trace, rep.Correct, rep.Failed, rep.Attempted, rep.Violations)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics reported, want %d", trace, len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.Name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %s missing or not finite: %+v", trace, d.Name, m)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var line struct {
					Correct   *bool                  `json:"correct"`
					Attempted *int                   `json:"attempted"`
					Failed    *int                   `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
					t.Errorf("result object incomplete: %s", lines[len(lines)-1])
				}
				if !trace {
					continue
				}
				if tr == nil {
					t.Fatal("traced run returned no tracer")
				}
				path := filepath.Join(dir, w.name+".trace.json")
				if err := tr.write(path, w.name, rc.seed); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil {
					t.Fatalf("span file does not parse: %v", err)
				}
				if len(tf.Spans) == 0 {
					t.Error("span file holds no spans")
				}
				for _, s := range tf.Spans {
					if s.End < s.Start {
						t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
					}
				}
				for name, self := range tf.SelfMs {
					if self < 0 {
						t.Errorf("self time of %s is negative: %v ms", name, self)
					}
				}
			}
		})
	}
}

func TestChurnStopsPastItsWallCap(t *testing.T) {
	// 2000 epochs cannot run in the 20 ms twice these --seconds allow.
	c := churnConfig{arrivals: tinyArrivals(), epochsPerSecond: 200000}
	rc := runConfig{seed: 1, seconds: 0.01, setups: 1, outDir: t.TempDir()}
	res, _, err := c.run(rc)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.report("engine-churn", rc)
	if !rep.Correct || len(rep.Notes) != 1 {
		t.Fatalf("correct=%v violations=%v notes=%v, want a correct run with one note", rep.Correct, rep.Violations, rep.Notes)
	}
	if rep.Attempted >= 2000 || rep.Attempted%churnWindow != 0 {
		t.Errorf("attempted %d epochs, want a whole number of windows below 2000", rep.Attempted)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, c := range []offlineConfig{fig4Exact(16, 200, 5), podsFlows(4, 4, 64, 2, 400)} {
		a, err := c.build(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := c.build(1)
		other, _ := c.build(2)
		if !bytes.Equal(a.stream, b.stream) {
			t.Errorf("%s: the same seed gave different flow streams", c.name)
		}
		if bytes.Equal(a.stream, other.stream) {
			t.Errorf("%s: seeds 1 and 2 gave the same flow stream", c.name)
		}
	}

	churn := func(seed int64) *churnInput {
		in, err := tinyArrivals().churn(seed, 20)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	if a, b := churn(1), churn(1); !reflect.DeepEqual(a.flows, b.flows) || !reflect.DeepEqual(a.cancels, b.cancels) {
		t.Error("engine-churn: the same seed gave different arrivals")
	}
	if reflect.DeepEqual(churn(1).flows, churn(2).flows) {
		t.Error("engine-churn: seeds 1 and 2 gave the same arrivals")
	}

	schedule := func(seed int64) []byte {
		in, err := tinyDaemon().load(seed, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var all bytes.Buffer
		for _, r := range in.requests {
			all.WriteString(r.due.String() + " " + r.method + " " + r.path + " ")
			all.Write(r.body)
			all.WriteByte('\n')
		}
		return all.Bytes()
	}
	if !bytes.Equal(schedule(1), schedule(1)) {
		t.Error("daemon-http: the same seed gave different request schedules")
	}
	if bytes.Equal(schedule(1), schedule(2)) {
		t.Error("daemon-http: seeds 1 and 2 gave the same request schedule")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 = quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(3, 1) = %v, %v, want 0.5, 3.5", q1, q3)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a, as concurrent children do
		{ID: 4, Parent: 2, Name: "c", Start: 10, End: 20},
	}
	want := map[string]int64{"op": 50, "a": 20, "b": 30, "c": 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestClassify(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 90, 135, 75, 110, 95, 130}
	cases := []struct {
		name         string
		old, new     []float64
		higherBetter bool
		want         string
	}{
		{"same runs", steady, steady, false, "unchanged"},
		{"a tenth faster", steady, shift(steady, 0.9), false, "improved"},
		{"a tenth slower", steady, shift(steady, 1.1), false, "regressed"},
		{"a tenth less throughput", steady, shift(steady, 0.9), true, "regressed"},
		{"too few pairs to claim", steady[:5], shift(steady[:5], 0.9), false, "unchanged"},
		{"spread wider than the bound", noisy, shift(noisy, 1.02), false, "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := classify(c.old, c.new, c.higherBetter, 0.05); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsARegression(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSet := func(name string, factor float64, failed int) string {
		var buf bytes.Buffer
		for run := 0; run < 10; run++ {
			for _, w := range c.Workloads {
				r := report{Workload: w.Name, Seed: int64(run), Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
				for _, m := range c.EndToEnd {
					v := 100 + float64(run%3)
					if m.Name == "op_ms_p50" {
						v *= factor
					}
					r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
				}
				data, _ := json.Marshal(r)
				buf.Write(append(data, '\n'))
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := writeSet("base.json", 1, 0)
	for _, tc := range []struct {
		name   string
		path   string
		wantOK bool
	}{
		{"same", writeSet("same.json", 1, 0), true},
		{"faster", writeSet("faster.json", 0.5, 0), true},
		{"slower", writeSet("slower.json", 2, 0), false},
		{"failing", writeSet("failing.json", 1, 3), false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.wantOK {
			t.Errorf("%s: compare ok = %v, want %v\n%s", tc.name, ok, tc.wantOK, out.String())
		}
	}
}
