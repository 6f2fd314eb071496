package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// TraceVersion is the JSONL decision-trace schema version stamped into
// every record as "v". Bump only when a field changes meaning; adding
// event kinds or fields keeps the version.
const TraceVersion = 1

// maxTraceLine bounds one JSONL record when decoding (1 MiB is far above
// any record the instrumented layers emit; the bound keeps DecodeTrace
// safe on hostile input).
const maxTraceLine = 1 << 20

// fieldKind discriminates the payload of a Field.
type fieldKind uint8

const (
	fInt fieldKind = iota
	fPairs
)

// Field is one key/value pair of a trace record. Construct fields with I
// or Pairs; the zero Field is invalid.
type Field struct {
	key   string
	kind  fieldKind
	i     int64
	pairs [][2]int
}

// I is an integer field.
func I(key string, v int64) Field { return Field{key: key, kind: fInt, i: v} }

// Pairs is a field holding a list of integer pairs (rendered as a JSON
// array of two-element arrays); the schedule events use it for link sets.
func Pairs(key string, v [][2]int) Field { return Field{key: key, kind: fPairs, pairs: v} }

// Tracer writes the JSONL decision trace: one JSON object per line, each
// carrying the schema version, a monotonically increasing sequence number,
// the event kind, and the event's fields in emission order:
//
//	{"v":1,"seq":12,"ev":"core.iter","iter":3,"alpha":40,...}
//
// The nil *Tracer is a no-op (Emit does nothing and allocates nothing).
// A non-nil Tracer is safe for concurrent use; records are written atomically
// in seq order. Encoding errors are sticky: the first write error stops
// further output and is reported by Err.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	seq int64
	err error
}

// NewTracer returns a tracer writing JSONL records to w. The caller owns
// w's lifetime (buffering, closing); see mhsim for the file wiring.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// Emit appends one record. Nil-safe: a nil tracer returns immediately.
func (t *Tracer) Emit(event string, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	buf := t.buf[:0]
	buf = append(buf, `{"v":`...)
	buf = strconv.AppendInt(buf, TraceVersion, 10)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, t.seq, 10)
	buf = append(buf, `,"ev":`...)
	buf = strconv.AppendQuote(buf, event)
	for i := range fields {
		f := &fields[i]
		buf = append(buf, ',')
		buf = strconv.AppendQuote(buf, f.key)
		buf = append(buf, ':')
		switch f.kind {
		case fInt:
			buf = strconv.AppendInt(buf, f.i, 10)
		case fPairs:
			buf = append(buf, '[')
			for j, p := range f.pairs {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, '[')
				buf = strconv.AppendInt(buf, int64(p[0]), 10)
				buf = append(buf, ',')
				buf = strconv.AppendInt(buf, int64(p[1]), 10)
				buf = append(buf, ']')
			}
			buf = append(buf, ']')
		}
	}
	buf = append(buf, '}', '\n')
	t.buf = buf
	if _, err := t.w.Write(buf); err != nil {
		t.err = err
		return
	}
	t.seq++
}

// Events returns the number of records successfully emitted (0 for nil).
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Err returns the sticky write error, if any (nil for a nil tracer).
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Record is one decoded trace record: the envelope fields plus the event
// payload as decoded JSON values.
type Record struct {
	V      int
	Seq    int64
	Ev     string
	Fields map[string]any
}

// Int returns the integer payload field key, false when absent or not an
// integer-valued JSON number.
func (r *Record) Int(key string) (int64, bool) {
	v, ok := r.Fields[key].(float64)
	if !ok || v != float64(int64(v)) {
		return 0, false
	}
	return int64(v), true
}

// IntPairs returns the pair-list payload field key (as written by Pairs),
// false when absent or malformed.
func (r *Record) IntPairs(key string) ([][2]int, bool) {
	raw, ok := r.Fields[key].([]any)
	if !ok {
		return nil, false
	}
	out := make([][2]int, 0, len(raw))
	for _, e := range raw {
		p, ok := e.([]any)
		if !ok || len(p) != 2 {
			return nil, false
		}
		a, okA := p[0].(float64)
		b, okB := p[1].(float64)
		if !okA || !okB || a != float64(int64(a)) || b != float64(int64(b)) {
			return nil, false
		}
		out = append(out, [2]int{int(a), int(b)})
	}
	return out, true
}

// DecodeTrace parses a JSONL decision trace (or a flight log, which shares
// the envelope). Every line must be a JSON object with an integer "v" equal
// to TraceVersion, a non-negative integer "seq" larger than the line's
// before it — so a truncated-and-spliced file fails — and a non-empty
// string "ev"; blank lines are skipped. Decoding is hardened against
// hostile input: malformed JSON, wrong versions, and oversized lines yield
// errors, never panics.
func DecodeTrace(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTraceLine)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %v", line, err)
		}
		rec := Record{Fields: m}
		v, ok := m["v"].(float64)
		if !ok || v != float64(int64(v)) {
			return nil, fmt.Errorf("obs: trace line %d: missing or non-integer version", line)
		}
		rec.V = int(v)
		if rec.V != TraceVersion {
			return nil, fmt.Errorf("obs: trace line %d: unsupported version %d (want %d)", line, rec.V, TraceVersion)
		}
		seq, ok := m["seq"].(float64)
		if !ok || seq != float64(int64(seq)) || seq < 0 {
			return nil, fmt.Errorf("obs: trace line %d: missing or invalid seq", line)
		}
		rec.Seq = int64(seq)
		if n := len(out); n > 0 && rec.Seq <= out[n-1].Seq {
			return nil, fmt.Errorf("obs: trace line %d: seq %d not above the previous %d", line, rec.Seq, out[n-1].Seq)
		}
		ev, ok := m["ev"].(string)
		if !ok || ev == "" {
			return nil, fmt.Errorf("obs: trace line %d: missing event kind", line)
		}
		rec.Ev = ev
		delete(m, "v")
		delete(m, "seq")
		delete(m, "ev")
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: trace line %d: %v", line+1, err)
	}
	return out, nil
}
