package traffic

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"octopus/internal/graph"
)

func TestJSONRoundTrip(t *testing.T) {
	g := graph.Complete(10)
	rng := rand.New(rand.NewSource(1))
	p := DefaultSyntheticParams(10, 200)
	p.RouteChoices = 3
	load, err := Synthetic(g, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	load.Flows[0].WeightHops = 3

	var buf bytes.Buffer
	if err := load.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Flows) != len(load.Flows) {
		t.Fatalf("flow count %d != %d", len(got.Flows), len(load.Flows))
	}
	for i := range load.Flows {
		a, b := load.Flows[i], got.Flows[i]
		if a.ID != b.ID || a.Size != b.Size || a.Src != b.Src || a.Dst != b.Dst ||
			a.WeightHops != b.WeightHops || len(a.Routes) != len(b.Routes) {
			t.Fatalf("flow %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Routes {
			if !a.Routes[j].Equal(b.Routes[j]) {
				t.Fatalf("flow %d route %d mismatch", i, j)
			}
		}
	}
	if err := got.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		`{`,
		`{"flows":[{"id":1,"size":5,"src":0,"dst":2}]}`,                    // no routes
		`{"flows":[{"id":1,"size":5,"src":0,"dst":2,"routes":[[0]]}]}`,     // degenerate route
		`{"flows":[{"id":1,"size":5,"src":0,"dst":2,"routes":[[0,1]]}]}`,   // wrong dst
		`{"flows":[{"id":1,"size":5,"src":1,"dst":2,"routes":[[0,1,2]]}]}`, // wrong src
		`{"flows":[{"id":1,"size":-5,"src":0,"dst":2,"routes":[[0,2]]}]}`,  // negative size, as no stream holds
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
	ok := `{"flows":[{"id":1,"size":5,"src":0,"dst":2,"routes":[[0,1,2]]}]}`
	if _, err := ReadJSON(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid load rejected: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "load.json")
	load := &Load{Flows: []Flow{
		{ID: 1, Size: 3, Src: 0, Dst: 1, Routes: []Route{{0, 1}}},
	}}
	if err := load.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAnyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalPackets() != 3 {
		t.Fatalf("got %+v", got)
	}
	if _, err := LoadAnyFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
