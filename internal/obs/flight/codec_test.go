package flight

import (
	"bytes"
	"strings"
	"testing"
)

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
	hdr, evs, err := DecodeLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if hdr.V != Version || hdr.Kind != "flight" || hdr.Sample != 1 {
		t.Fatalf("header = %+v", hdr)
	}
	orig := r.All()
	if len(evs) != len(orig) || hdr.Events != uint64(len(orig)) {
		t.Fatalf("decoded %d events, want %d (header %d)", len(evs), len(orig), hdr.Events)
	}
	for i := range orig {
		if evs[i] != orig[i] {
			t.Fatalf("event %d: decoded %+v, want %+v", i, evs[i], orig[i])
		}
	}
}

// TestLogRoundTripAfterWrap checks that sequence numbers survive a ring
// wrap: the log starts mid-sequence and still decodes.
func TestLogRoundTripAfterWrap(t *testing.T) {
	r := New(Config{Cap: 4})
	for i := 0; i < 11; i++ {
		r.Hop(int64(i), i, 1, 2, 1)
	}
	var buf bytes.Buffer
	if err := r.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	hdr, evs, err := DecodeLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Events != 11 || len(evs) != 4 {
		t.Fatalf("header events %d, decoded %d", hdr.Events, len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("seq range [%d,%d], want [7,10]", evs[0].Seq, evs[3].Seq)
	}
}

// TestDecodeHostileInputs pins the hardening: each malformed input must
// error, never panic or silently succeed.
func TestDecodeHostileInputs(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"garbage header":    "not json\n",
		"wrong version":     `{"v":2,"kind":"flight"}` + "\n",
		"wrong kind":        `{"v":1,"kind":"trace"}` + "\n",
		"negative sample":   `{"v":1,"kind":"flight","sample":-3}` + "\n",
		"unknown event":     `{"v":1,"kind":"flight"}` + "\n" + `{"seq":1,"flow":1,"ev":"teleported","epoch":0}` + "\n",
		"unknown field":     `{"v":1,"kind":"flight"}` + "\n" + `{"seq":1,"flow":1,"ev":"hop","epoch":0,"zzz":1}` + "\n",
		"bad event json":    `{"v":1,"kind":"flight"}` + "\n" + "{{{\n",
		"repeated seq":      `{"v":1,"kind":"flight"}` + "\n" + `{"seq":5,"flow":1,"ev":"hop","epoch":0}` + "\n" + `{"seq":5,"flow":2,"ev":"hop","epoch":0}` + "\n",
		"decreasing seq":    `{"v":1,"kind":"flight"}` + "\n" + `{"seq":5,"flow":1,"ev":"hop","epoch":0}` + "\n" + `{"seq":4,"flow":2,"ev":"hop","epoch":0}` + "\n",
		"overlong line":     `{"v":1,"kind":"flight"}` + "\n" + `{"seq":1,"flow":1,"ev":"hop","epoch":0,"a":` + strings.Repeat("1", maxLine+10) + "}\n",
		"event type string": `{"v":1,"kind":"flight"}` + "\n" + `{"seq":1,"flow":"x","ev":"hop","epoch":0}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := DecodeLog(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted hostile input", name)
		}
	}
}

// TestDecodeTolerance: blank lines between events are permitted (some
// tools add trailing newlines), and an empty event list is a valid log.
func TestDecodeTolerance(t *testing.T) {
	in := `{"v":1,"kind":"flight","sample":4}` + "\n\n" +
		`{"seq":1,"flow":1,"ev":"admitted","epoch":0,"a":5}` + "\n\n"
	hdr, evs, err := DecodeLog(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Sample != 4 || len(evs) != 1 || evs[0].Kind != KindAdmitted || evs[0].A != 5 {
		t.Fatalf("hdr %+v evs %+v", hdr, evs)
	}
	if _, evs, err := DecodeLog(strings.NewReader(`{"v":1,"kind":"flight"}` + "\n")); err != nil || len(evs) != 0 {
		t.Fatalf("header-only log: evs=%v err=%v", evs, err)
	}
}
