package schedule

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzScheduleJSON checks the schedule parser never panics and that
// everything it accepts is structurally sane and round-trips byte-stably.
func FuzzScheduleJSON(f *testing.F) {
	f.Add(`{"delta":1,"configs":[{"alpha":5,"from":[0,2],"to":[1,3]}]}`)
	f.Add(`{"delta":0,"configs":[]}`)
	f.Add(`{`)
	f.Add(`{"delta":-1,"configs":[]}`)
	f.Add(`{"delta":1,"configs":[{"alpha":0,"from":[0],"to":[1]}]}`)
	f.Add(`{"delta":1,"configs":[{"alpha":3,"from":[0,1],"to":[1]}]}`)
	f.Add(`{"delta":2,"configs":[{"alpha":9007199254740993,"from":[],"to":[]}]}`)
	f.Add(`{"delta":2,"multihop":true,"eps64":64,"configs":[{"alpha":4,"from":[0],"to":[1]}]}`)
	f.Add(`{"delta":2,"eps64":-64,"configs":[]}`)
	f.Fuzz(func(t *testing.T, data string) {
		sch, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		// ReadJSON's documented guarantees on anything it accepts.
		if sch.Delta < 0 {
			t.Fatalf("accepted negative delta %d", sch.Delta)
		}
		if sch.Epsilon64 < 0 || sch.Epsilon64 > maxEpsilon64 {
			t.Fatalf("accepted eps64 %d", sch.Epsilon64)
		}
		for i, c := range sch.Configs {
			if c.Alpha <= 0 {
				t.Fatalf("accepted config %d with alpha %d", i, c.Alpha)
			}
		}
		// Whatever parses must re-serialize and re-parse identically.
		var buf bytes.Buffer
		if err := sch.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted schedule failed to serialize: %v", err)
		}
		first := buf.String()
		again, err := ReadJSON(strings.NewReader(first))
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		var buf2 bytes.Buffer
		if err := again.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if first != buf2.String() {
			t.Fatal("round trip is not byte-stable")
		}
		if again.Cost() != sch.Cost() || len(again.Configs) != len(sch.Configs) ||
			again.MultiHop != sch.MultiHop || again.Epsilon64 != sch.Epsilon64 {
			t.Fatal("round trip changed the schedule")
		}
	})
}
