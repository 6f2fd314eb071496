package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzTraceDecode hammers the hardened JSONL decoder: it must never panic,
// and everything it accepts must round-trip through a fresh Tracer back to
// an equivalent envelope (version, seq order preserved per record).
func FuzzTraceDecode(f *testing.F) {
	f.Add(`{"v":1,"seq":0,"ev":"core.iter","iter":3,"alpha":40}` + "\n")
	f.Add(`{"v":1,"seq":0,"ev":"sched.config","links":[[0,1],[2,3]]}` + "\n")
	f.Add(`{"v":1,"seq":0,"ev":"x"}` + "\n" + `{"v":1,"seq":1,"ev":"y","s":"a\nb"}` + "\n")
	f.Add("")
	f.Add("\n\n")
	f.Add(`{"v":2,"seq":0,"ev":"x"}`)
	f.Add(`{"v":1,"seq":-1,"ev":"x"}`)
	f.Add(`{"v":1,"seq":0,"ev":""}`)
	f.Add(`{"v":1,"seq":3,"ev":"flight","sample":1,"events":9}` + "\n" + `{"v":1,"seq":2,"ev":"flow.hop","flow":7,"epoch":1,"a":1,"b":3,"c":4}` + "\n")
	f.Add("not json at all")
	f.Add(`{"v":1,"seq":0,"ev":"x","nested":{"a":[1,{"b":null}]}}`)

	f.Fuzz(func(t *testing.T, data string) {
		recs, err := DecodeTrace(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: envelope invariants must hold on every record.
		for i, r := range recs {
			if r.V != TraceVersion {
				t.Fatalf("record %d: accepted version %d", i, r.V)
			}
			if r.Seq < 0 || (i > 0 && r.Seq <= recs[i-1].Seq) {
				t.Fatalf("record %d: accepted seq %d (negative or not increasing)", i, r.Seq)
			}
			if r.Ev == "" {
				t.Fatalf("record %d: accepted empty event kind", i)
			}
			if _, ok := r.Fields["v"]; ok {
				t.Fatalf("record %d: envelope key leaked into Fields", i)
			}
		}
		// Re-emitting the event kinds through a Tracer must produce a trace
		// the decoder accepts again.
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		for _, r := range recs {
			tr.Emit(r.Ev)
		}
		again, err := DecodeTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-encode lost records: %d != %d", len(again), len(recs))
		}
		for i := range again {
			if again[i].Ev != recs[i].Ev {
				t.Fatalf("record %d: event kind mangled %q -> %q", i, recs[i].Ev, again[i].Ev)
			}
			if again[i].Seq != int64(i) {
				t.Fatalf("record %d: seq not monotone: %d", i, again[i].Seq)
			}
		}
	})
}
