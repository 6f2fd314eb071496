package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilInstrumentsAreNoOps pins the package's core contract: every
// instrument and the registry itself must be fully usable as nil.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram observed something")
	}
	sp := h.Start()
	sp.End()
	if h.Count() != 0 {
		t.Fatal("nil histogram recorded a span")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Duration("x") != nil {
		t.Fatal("nil registry handed out a live instrument")
	}
	if r.Value("x") != 0 {
		t.Fatal("nil registry has values")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry wrote metrics")
	}
	buf.Reset()
	if err := r.WriteVars(&buf); err != nil || buf.String() != "{}" {
		t.Fatalf("nil registry vars = %q", buf.String())
	}

	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x").Observe(1)
	o.Histogram("x").Start().End()
	o.Tracer().Emit("ev", I("k", 1))
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("hits_total") != c {
		t.Fatal("lookup is not idempotent")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if r.Value("hits_total") != 5 || r.Value("depth") != 7 || r.Value("absent") != 0 {
		t.Fatal("registry Value lookup wrong")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes")
	for _, v := range []int64{0, 1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 110 { // -5 clamps to 0
		t.Fatalf("sum = %d", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sizes histogram",
		`sizes_bucket{le="0"} 2`,    // 0 and -5
		`sizes_bucket{le="1"} 3`,    // + 1
		`sizes_bucket{le="3"} 5`,    // + 2, 3
		`sizes_bucket{le="7"} 6`,    // + 4
		`sizes_bucket{le="127"} 7`,  // + 100
		`sizes_bucket{le="+Inf"} 7`, // total
		"sizes_sum 110",
		"sizes_count 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestTimerRecordsSpans(t *testing.T) {
	r := NewRegistry()
	tm := r.Histogram("step_ns")
	sp := tm.Start()
	sp.End()
	if tm.Count() != 1 {
		t.Fatalf("span count = %d", tm.Count())
	}
	if r.Value("step_ns") != 1 {
		t.Fatal("registry Value of a timed histogram is not its span count")
	}
}

func TestWriteVarsIsValidSortedJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a").Set(-4)
	r.Histogram("c").Observe(9)
	var buf bytes.Buffer
	if err := r.WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("vars output is not JSON: %v\n%s", err, buf.String())
	}
	if m["a"].(float64) != -4 || m["b_total"].(float64) != 2 {
		t.Fatalf("vars values wrong: %v", m)
	}
	hist := m["c"].(map[string]any)
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 9 {
		t.Fatalf("histogram vars wrong: %v", hist)
	}
	// Deterministic key order: "a" before "b_total" before "c".
	s := buf.String()
	if !(strings.Index(s, `"a"`) < strings.Index(s, `"b_total"`) && strings.Index(s, `"b_total"`) < strings.Index(s, `"c"`)) {
		t.Fatalf("vars keys not sorted: %s", s)
	}
}

// TestConcurrentInstruments exercises the atomics under the race detector.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if r.Value("n_total") != 8000 || r.Value("g") != 8000 || r.Value("h") != 8000 {
		t.Fatalf("lost updates: %d %d %d", r.Value("n_total"), r.Value("g"), r.Value("h"))
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	r.Histogram("h_ns")
	for what, again := range map[string]func(){
		"a counter as a gauge":                func() { r.Gauge("x") },
		"a histogram as a seconds-export one": func() { r.Duration("h_ns") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-registering %s did not panic", what)
				}
			}()
			again()
		}()
	}
}

// TestHistogramQuantile pins the base-2 quantile estimator: the answer is
// the upper bound of the bucket holding the rank-q observation.
func TestHistogramQuantile(t *testing.T) {
	var h *Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
	h = &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 90 observations of 3 (bucket 2, le=3) and 10 of 1000 (bucket 10,
	// le=1023): p50 lands in the low bucket, p99 in the high one.
	for i := 0; i < 90; i++ {
		h.Observe(3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %d, want 3", got)
	}
	if got := h.Quantile(0.99); got != 1023 {
		t.Fatalf("p99 = %d, want 1023", got)
	}
	if got := h.Quantile(0); got != 3 {
		t.Fatalf("p0 = %d, want 3", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Fatalf("p100 = %d, want 1023", got)
	}
	// All-zero observations resolve to bucket 0.
	z := &Histogram{}
	z.Observe(0)
	if got := z.Quantile(1); got != 0 {
		t.Fatalf("all-zero p100 = %d, want 0", got)
	}
}

// TestDurationHistogram pins the seconds-scaled export of the duration
// kind: nanosecond storage, float-second le bounds and sum.
func TestDurationHistogram(t *testing.T) {
	reg := NewRegistry()
	dh := reg.Duration("test_plan_seconds")
	if dh != reg.Duration("test_plan_seconds") {
		t.Fatal("Duration is not idempotent")
	}
	dh.Observe(1500 * 1e6) // 1.5s in ns
	dh.Observe(500 * 1e6)  // 0.5s
	if dh.Count() != 2 {
		t.Fatalf("count = %d, want 2", dh.Count())
	}
	if dh.Sum() != 2*1e9 {
		t.Fatalf("sum = %v, want 2s", dh.Sum())
	}
	if reg.Value("test_plan_seconds") != 2 {
		t.Fatalf("Value = %d, want 2", reg.Value("test_plan_seconds"))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE test_plan_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "test_plan_seconds_sum 2\n") {
		t.Fatalf("sum not in float seconds:\n%s", out)
	}
	if !strings.Contains(out, "test_plan_seconds_count 2\n") {
		t.Fatalf("missing count:\n%s", out)
	}
	// le bounds must be fractional seconds, not raw nanoseconds.
	if !strings.Contains(out, `le="1.073741823`) {
		t.Fatalf("expected ~1.07s le bound for the 2^30-1 ns bucket:\n%s", out)
	}
	buf.Reset()
	if err := reg.WriteVars(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("vars not JSON: %v\n%s", err, buf.String())
	}
	obj, ok := vars["test_plan_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("vars entry missing: %v", vars)
	}
	if obj["count"].(float64) != 2 || obj["sum_seconds"].(float64) != 2 {
		t.Fatalf("vars entry = %v", obj)
	}
}
