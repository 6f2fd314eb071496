package flight

import (
	"bytes"
	"strings"
	"testing"

	"octopus/internal/obs"
)

// decodeLog reads a flight log back through the decision-trace decoder:
// the "flight" record's sample and events, then the flow records as
// Events whose Seq is the line's own sequence number.
func decodeLog(t *testing.T, log []byte) (sample, total int64, evs []Event) {
	t.Helper()
	recs, err := obs.DecodeTrace(bytes.NewReader(log))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, log)
	}
	if len(recs) == 0 || recs[0].Ev != "flight" {
		t.Fatalf("log does not start with a flight record:\n%s", log)
	}
	sample, _ = recs[0].Int("sample")
	total, _ = recs[0].Int("events")
	for _, r := range recs[1:] {
		name, ok := strings.CutPrefix(r.Ev, "flow.")
		kind := Kind(0)
		for kind < numKinds && kind.String() != name {
			kind++
		}
		if !ok || kind == numKinds {
			t.Fatalf("seq %d: event %q is not a flow event", r.Seq, r.Ev)
		}
		get := func(key string) int64 {
			v, ok := r.Int(key)
			if !ok {
				t.Fatalf("seq %d: %s record without integer %q", r.Seq, r.Ev, key)
			}
			return v
		}
		evs = append(evs, Event{
			Seq: uint64(r.Seq), Flow: get("flow"), Kind: kind, Epoch: int32(get("epoch")),
			A: get("a"), B: get("b"), C: get("c"),
		})
	}
	return sample, total, evs
}

// TestLogRoundTrip writes a journal and decodes it back, checking header
// and event fidelity.
func TestLogRoundTrip(t *testing.T) {
	r := New(Config{Sample: 1, SLOEpochs: 4})
	r.Admit(3, 0, 10, 1, 2)
	r.Planned(3, 1, 2, MatcherGreedy, 10)
	r.Hop(3, 1, 1, 3, 10)
	r.Delivered(3, 2, 10)
	r.Dropped(9, 2, 4)
	var buf bytes.Buffer
	if err := r.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	sample, total, evs := decodeLog(t, buf.Bytes())
	orig := r.All()
	if sample != 1 || len(evs) != len(orig) || total != int64(len(orig)) {
		t.Fatalf("sample %d, decoded %d events, want %d (header %d)", sample, len(evs), len(orig), total)
	}
	for i := range orig {
		want := orig[i]
		want.Seq++ // the header line took sequence number 0
		if evs[i] != want {
			t.Fatalf("event %d: decoded %+v, want %+v", i, evs[i], want)
		}
	}
}

// TestLogRoundTripAfterWrap checks a wrapped ring: the log holds the
// newest events only and its header still counts every event recorded.
func TestLogRoundTripAfterWrap(t *testing.T) {
	r := New(Config{Cap: 4})
	for i := 0; i < 11; i++ {
		r.Hop(int64(i), i, 1, 2, 1)
	}
	var buf bytes.Buffer
	if err := r.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	_, total, evs := decodeLog(t, buf.Bytes())
	if total != 11 || len(evs) != 4 {
		t.Fatalf("header events %d, decoded %d", total, len(evs))
	}
	if evs[0].Flow != 7 || evs[3].Flow != 10 {
		t.Fatalf("flows [%d,%d], want [7,10]", evs[0].Flow, evs[3].Flow)
	}
}

// TestDecodeTolerance: a recorder that journaled nothing still writes a
// valid log — the flight record alone, counting zero events.
func TestDecodeTolerance(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Config{Sample: 4}).WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if sample, total, evs := decodeLog(t, buf.Bytes()); sample != 4 || total != 0 || len(evs) != 0 {
		t.Fatalf("empty journal: sample %d, events %d, decoded %v", sample, total, evs)
	}
}
