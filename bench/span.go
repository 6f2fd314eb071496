package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer was created; Parent is the ID of the span that caused this
// one (0 for a root) and Op groups the spans of one operation (one offline
// op, one epoch, one request).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans of a traced run in memory until the run ends.
// All spans are recorded from the benchmark's own files, around its calls
// into each package; a nil tracer records nothing, which is the untraced
// run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := s.End - s.Start
	t.mu.Unlock()
	return time.Duration(d)
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of it its child spans cover. Children of
// concurrent callers may overlap, so coverage is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// traceFile is the layout of out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

// write stores the spans and their per-name self times at path.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, SelfMs: make(map[string]float64), Spans: t.spans}
	for name, ns := range selfTimes(t.spans) {
		tf.SelfMs[name] = float64(ns) / 1e6
	}
	data, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
