package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit("core.iter", I("iter", 0), I("alpha", 40), I("benefit", -3))
	tr.Emit("sched.config", I("idx", 1), Pairs("links", [][2]int{{0, 1}, {2, 3}}))
	tr.Emit("empty")
	if tr.Events() != 3 {
		t.Fatalf("events = %d", tr.Events())
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	recs, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records", len(recs))
	}
	for i, r := range recs {
		if r.V != TraceVersion || r.Seq != int64(i) {
			t.Fatalf("record %d envelope = v%d seq%d", i, r.V, r.Seq)
		}
	}
	if recs[0].Ev != "core.iter" {
		t.Fatalf("ev = %q", recs[0].Ev)
	}
	if v, ok := recs[0].Int("alpha"); !ok || v != 40 {
		t.Fatalf("alpha = %d,%v", v, ok)
	}
	if v, ok := recs[0].Int("benefit"); !ok || v != -3 {
		t.Fatalf("benefit = %d,%v", v, ok)
	}
	links, ok := recs[1].IntPairs("links")
	if !ok || len(links) != 2 || links[0] != [2]int{0, 1} || links[1] != [2]int{2, 3} {
		t.Fatalf("links = %v,%v", links, ok)
	}
	if len(recs[2].Fields) != 0 {
		t.Fatalf("envelope keys leaked into Fields: %v", recs[2].Fields)
	}
}

func TestTracerEscapesStrings(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(`ev"with\quotes`)
	raw := buf.String()
	recs, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatalf("decode of escaped record failed: %v\n%s", err, raw)
	}
	if recs[0].Ev != `ev"with\quotes` {
		t.Fatalf("ev = %q", recs[0].Ev)
	}
	// One record must still be exactly one line.
	if n := strings.Count(raw, "\n"); n != 1 {
		t.Fatalf("record spans %d lines", n)
	}
}

type failWriter struct{ err error }

func (f *failWriter) Write(p []byte) (int, error) { return 0, f.err }

func TestTracerStickyError(t *testing.T) {
	wantErr := errors.New("disk full")
	tr := NewTracer(&failWriter{err: wantErr})
	tr.Emit("a")
	tr.Emit("b")
	if !errors.Is(tr.Err(), wantErr) {
		t.Fatalf("err = %v", tr.Err())
	}
	if tr.Events() != 0 {
		t.Fatalf("events counted despite write failure: %d", tr.Events())
	}
}

func TestDecodeTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":        "hello\n",
		"not an object":   "[1,2,3]\n",
		"missing version": `{"seq":0,"ev":"x"}` + "\n",
		"wrong version":   `{"v":2,"seq":0,"ev":"x"}` + "\n",
		"float version":   `{"v":1.5,"seq":0,"ev":"x"}` + "\n",
		"missing seq":     `{"v":1,"ev":"x"}` + "\n",
		"negative seq":    `{"v":1,"seq":-1,"ev":"x"}` + "\n",
		"repeated seq":    `{"v":1,"seq":5,"ev":"x"}` + "\n" + `{"v":1,"seq":5,"ev":"y"}` + "\n",
		"decreasing seq":  `{"v":1,"seq":5,"ev":"x"}` + "\n\n" + `{"v":1,"seq":4,"ev":"y"}` + "\n",
		"missing ev":      `{"v":1,"seq":0}` + "\n",
		"empty ev":        `{"v":1,"seq":0,"ev":""}` + "\n",
		"oversized line":  `{"v":1,"seq":0,"ev":"x","pad":"` + strings.Repeat("a", maxTraceLine+1) + `"}` + "\n",
	}
	for name, in := range cases {
		if _, err := DecodeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted %q", name, in[:min(len(in), 60)])
		}
	}
}

func TestDecodeTraceSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"v":1,"seq":0,"ev":"x"}` + "\n\n" + `{"v":1,"seq":1,"ev":"y"}` + "\n"
	recs, err := DecodeTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Ev != "x" || recs[1].Ev != "y" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestRecordAccessorsRejectWrongTypes(t *testing.T) {
	in := `{"v":1,"seq":0,"ev":"x","f":1.5,"p":[[1],[2,3]],"q":[["a","b"]]}` + "\n"
	recs, err := DecodeTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if _, ok := r.Int("f"); ok {
		t.Error("Int accepted a fractional number")
	}
	if _, ok := r.Int("absent"); ok {
		t.Error("Int accepted an absent key")
	}
	if _, ok := r.IntPairs("p"); ok {
		t.Error("IntPairs accepted a one-element pair")
	}
	if _, ok := r.IntPairs("q"); ok {
		t.Error("IntPairs accepted string pairs")
	}
}
