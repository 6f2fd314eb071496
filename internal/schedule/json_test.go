package schedule

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"octopus/internal/graph"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := &Schedule{Delta: 7, Configs: []Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}, {From: 2, To: 3}}, Alpha: 30},
		{Links: []graph.Edge{{From: 1, To: 0}}, Alpha: 9},
	}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta != 7 || len(got.Configs) != 2 || got.Cost() != s.Cost() {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range s.Configs {
		if got.Configs[i].Alpha != s.Configs[i].Alpha || len(got.Configs[i].Links) != len(s.Configs[i].Links) {
			t.Fatalf("config %d differs", i)
		}
		for k := range s.Configs[i].Links {
			if got.Configs[i].Links[k] != s.Configs[i].Links[k] {
				t.Fatalf("config %d link %d differs", i, k)
			}
		}
	}
}

// TestScheduleJSONServiceRules: a plan's chaining and ε travel with it,
// and a plain plan is written byte for byte as before they existed.
func TestScheduleJSONServiceRules(t *testing.T) {
	plain := &Schedule{Delta: 2, Configs: []Configuration{{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 3}}}
	var buf bytes.Buffer
	if err := plain.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "{\n \"delta\": 2,\n \"configs\": [\n  {\n   \"alpha\": 3,\n   \"from\": [\n    0\n   ],\n   \"to\": [\n    1\n   ]\n  }\n ]\n}\n"
	if buf.String() != want {
		t.Fatalf("plain schedule written as\n%s\nwant\n%s", buf.String(), want)
	}
	for _, s := range []*Schedule{
		{Delta: 2, MultiHop: true, Configs: plain.Configs},
		{Delta: 2, Epsilon64: 64, Configs: plain.Configs},
		{Delta: 2, MultiHop: true, Epsilon64: maxEpsilon64, Configs: plain.Configs},
	} {
		buf.Reset()
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.MultiHop != s.MultiHop || got.Epsilon64 != s.Epsilon64 || got.Delta != s.Delta || got.Cost() != s.Cost() {
			t.Errorf("round trip of %+v read %+v", s, got)
		}
	}
}

func TestScheduleReadJSONRejects(t *testing.T) {
	cases := []string{
		`{`,
		`{"delta":-1,"configs":[]}`,
		`{"delta":1,"eps64":-1,"configs":[]}`,
		`{"delta":1,"eps64":1000000,"configs":[]}`,
		`{"delta":1,"multihop":1,"configs":[]}`,
		`{"delta":1,"configs":[{"alpha":0,"from":[],"to":[]}]}`,
		`{"delta":1,"configs":[{"alpha":5,"from":[0],"to":[]}]}`,
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestScheduleSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	s := &Schedule{Delta: 2, Configs: []Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 3},
	}}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost() != 5 {
		t.Fatalf("cost = %d", got.Cost())
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
