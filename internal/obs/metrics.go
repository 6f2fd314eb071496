// Package obs is the scheduler observability layer: a lightweight,
// allocation-conscious instrumentation core (counters, gauges, histograms
// and the spans they time) plus two sinks — a Prometheus-text / expvar
// snapshot exporter and a JSONL decision-trace writer.
//
// The design rule is that instrumentation is free when it is off: every
// instrument is used through a pointer whose nil value is a valid no-op, so
// instrumented hot paths pay exactly one nil check per event and zero
// allocations. A nil *Observer (the bundle the instrumented layers accept)
// hands out nil instruments, which makes "observability off" the zero value
// everywhere.
//
// Instrumentation is strictly read-only with respect to the algorithms it
// observes: enabling it must never change a schedule, a metric the
// schedulers report, or any tie-break. This invariant is enforced by
// equivalence property tests across the registry (see internal/algo and
// internal/core).
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil *Counter is a
// no-op; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The nil *Gauge is a no-op;
// all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (either sign).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i,
// with bucket 0 holding v == 0. 64 buckets cover the whole int64 range, so
// Observe never branches on range.
const histBuckets = 65

// Histogram accumulates int64 observations in exponential base-2 buckets
// (fixed size, allocation-free). Negative observations clamp to 0. The nil
// *Histogram is a no-op; all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64

	// seconds marks a histogram of nanosecond durations that exports its
	// bucket bounds and sum as float seconds, so it can honestly carry a
	// Prometheus `_seconds` name while storage stays integer. Set once, by
	// Registry.Duration.
	seconds bool
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.count.Load())
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// recorded observations: the upper bound of the first bucket whose
// cumulative count reaches q of the total. With base-2 buckets the answer
// is exact to within a factor of 2, which is the resolution the histogram
// stores. Returns 0 for a nil or empty histogram. Concurrent observations
// during the scan may shift the answer by a bucket; callers wanting an
// exact snapshot should quiesce writers first.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based, clamped into [1,total].
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 0
			}
			if i >= 63 {
				return math.MaxInt64
			}
			return (int64(1) << uint(i)) - 1
		}
	}
	return math.MaxInt64
}

// Span is one in-flight timed region; obtain it from Histogram.Start.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start begins a span whose End observes the elapsed nanoseconds. On a nil
// histogram this is free: the span's End does nothing and, critically, no
// clock read happens.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End closes the span, recording the elapsed nanoseconds.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.start).Nanoseconds())
}

// metricKind tags registry entries for export.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of instruments. Lookup-or-create accessors
// are idempotent: asking twice for the same name returns the same
// instrument, so independent layers can share counters by name. A nil
// *Registry hands out nil instruments (the no-op default).
//
// Metric names should follow Prometheus conventions
// ([a-zA-Z_][a-zA-Z0-9_]*); the exporters write them verbatim.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// lookup returns the metric registered under name, creating it with mk on
// first use. It panics if name is already registered with a different kind
// — that is a programming error, not a runtime condition.
func (r *Registry) lookup(name string, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name (nil registry → nil).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, func() *metric {
		return &metric{name: name, kind: kindCounter, c: &Counter{}}
	}).c
}

// Gauge returns the gauge registered under name (nil registry → nil).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, func() *metric {
		return &metric{name: name, kind: kindGauge, g: &Gauge{}}
	}).g
}

// Histogram returns the histogram registered under name (nil registry →
// nil).
func (r *Registry) Histogram(name string) *Histogram {
	return r.histogram(name, false)
}

// Duration returns the histogram of nanosecond durations registered under
// name (nil registry → nil). By Prometheus convention the name should end
// in `_seconds`; the exporters write its buckets and sum as float seconds.
func (r *Registry) Duration(name string) *Histogram {
	return r.histogram(name, true)
}

func (r *Registry) histogram(name string, seconds bool) *Histogram {
	if r == nil {
		return nil
	}
	h := r.lookup(name, kindHistogram, func() *metric {
		return &metric{name: name, kind: kindHistogram, h: &Histogram{seconds: seconds}}
	}).h
	if h.seconds != seconds {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different unit", name))
	}
	return h
}

// Value returns the current value of the counter or gauge registered under
// name, or a histogram's observation count; 0 when absent or nil.
func (r *Registry) Value(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	m, ok := r.metrics[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	switch m.kind {
	case kindCounter:
		return m.c.Value()
	case kindGauge:
		return m.g.Value()
	case kindHistogram:
		return m.h.Count()
	}
	return 0
}

// sorted returns the registered metrics ordered by name, so every export is
// deterministic regardless of registration order.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// WritePrometheus writes the registry as Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative _bucket/_sum/_count series with base-2 upper bounds.
// Output is sorted by metric name. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	buf := make([]byte, 0, 256)
	for _, m := range r.sorted() {
		buf = buf[:0]
		switch m.kind {
		case kindCounter:
			buf = append(buf, "# TYPE "...)
			buf = append(buf, m.name...)
			buf = append(buf, " counter\n"...)
			buf = append(buf, m.name...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, m.c.Value(), 10)
			buf = append(buf, '\n')
		case kindGauge:
			buf = append(buf, "# TYPE "...)
			buf = append(buf, m.name...)
			buf = append(buf, " gauge\n"...)
			buf = append(buf, m.name...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, m.g.Value(), 10)
			buf = append(buf, '\n')
		case kindHistogram:
			buf = appendPromHistogram(buf, m.name, m.h)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendUnit writes v, a bucket bound or the sum, in the unit the histogram
// exports: the integer itself, or float seconds for a Duration histogram.
func (h *Histogram) appendUnit(buf []byte, v int64) []byte {
	if h.seconds {
		return strconv.AppendFloat(buf, float64(v)/1e9, 'g', -1, 64)
	}
	return strconv.AppendInt(buf, v, 10)
}

// appendPromHistogram renders one histogram in Prometheus text format. The
// snapshot reads each bucket once; concurrent observations may make the
// +Inf bucket momentarily exceed the bucket sums, which Prometheus
// tolerates (counts are cumulative and monotone).
func appendPromHistogram(buf []byte, name string, h *Histogram) []byte {
	buf = append(buf, "# TYPE "...)
	buf = append(buf, name...)
	buf = append(buf, " histogram\n"...)
	top := histBuckets - 1
	for top > 0 && h.buckets[top].Load() == 0 {
		top--
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += h.buckets[i].Load()
		buf = append(buf, name...)
		buf = append(buf, `_bucket{le="`...)
		switch {
		case i < 63:
			// Bucket i holds values with bit length i: upper bound 2^i - 1.
			buf = h.appendUnit(buf, (int64(1)<<uint(i))-1)
		case h.seconds:
			buf = strconv.AppendFloat(buf, math.MaxFloat64, 'g', -1, 64)
		default:
			buf = strconv.AppendInt(buf, math.MaxInt64, 10)
		}
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, `_bucket{le="+Inf"} `...)
	buf = strconv.AppendInt(buf, h.Count(), 10)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_sum "...)
	buf = h.appendUnit(buf, h.Sum())
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count "...)
	buf = strconv.AppendInt(buf, h.Count(), 10)
	buf = append(buf, '\n')
	return buf
}

// WriteVars writes the registry as a JSON object in the style of
// /debug/vars: counters and gauges as bare numbers, histograms as
// {"count":..,"sum":..} objects ("sum_seconds" for a Duration histogram).
// Keys are sorted. A nil registry writes "{}".
func (r *Registry) WriteVars(w io.Writer) error {
	buf := []byte{'{'}
	if r != nil {
		for i, m := range r.sorted() {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, m.name)
			buf = append(buf, ':')
			switch m.kind {
			case kindCounter:
				buf = strconv.AppendInt(buf, m.c.Value(), 10)
			case kindGauge:
				buf = strconv.AppendInt(buf, m.g.Value(), 10)
			case kindHistogram:
				buf = append(buf, `{"count":`...)
				buf = strconv.AppendInt(buf, m.h.Count(), 10)
				if m.h.seconds {
					buf = append(buf, `,"sum_seconds":`...)
				} else {
					buf = append(buf, `,"sum":`...)
				}
				buf = m.h.appendUnit(buf, m.h.Sum())
				buf = append(buf, '}')
			}
		}
	}
	buf = append(buf, '}')
	_, err := w.Write(buf)
	return err
}
