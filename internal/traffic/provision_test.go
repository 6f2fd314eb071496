package traffic

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"octopus/internal/graph"
)

// provisionCase is one seeded load of the provisioning golden and the
// knobs it is provisioned under.
type provisionCase struct {
	name    string
	fabric  *graph.Digraph
	seed    int64
	choices int // candidate routes per flow
	weight  int // WeightHops given to every flow, 0 for none
	k       int
	crit    float64
	stretch float64
}

func provisionCases() []provisionCase {
	return []provisionCase{
		{name: "complete8", fabric: graph.Complete(8), seed: 1, k: 2, crit: 0.5, stretch: 2},
		{name: "complete8-k3-stretch1.5", fabric: graph.Complete(8), seed: 2, k: 3, crit: 0.5, stretch: 1.5},
		{name: "complete8-choices3", fabric: graph.Complete(8), seed: 4, choices: 3, k: 2, crit: 0.5, stretch: 2},
		{name: "complete8-weighted", fabric: graph.Complete(8), seed: 7, weight: 3, k: 4, crit: 0.3, stretch: 0},
		{name: "chord12-all-uncapped", fabric: graph.ChordRing(12, 2, 5), seed: 3, k: 3, crit: 1, stretch: 0},
		{name: "chord12-stretch1", fabric: graph.ChordRing(12, 2, 5), seed: 5, choices: 2, k: 2, crit: 0.5, stretch: 1},
		{name: "k1-identity", fabric: graph.Complete(8), seed: 6, choices: 2, k: 1, crit: 0.5, stretch: 2},
		{name: "crit0-identity", fabric: graph.Complete(8), seed: 6, choices: 2, k: 2, crit: 0, stretch: 2},
	}
}

// provisionedFlow is what the golden records of a provisioned flow.
type provisionedFlow struct {
	ID         int     `json:"id"`
	Size       int     `json:"size"`
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	WeightHops int     `json:"weight_hops,omitempty"`
	Routes     []Route `json:"routes"`
}

type provisionedLoad struct {
	Name  string            `json:"name"`
	Flows []provisionedFlow `json:"flows"`
	Group map[int]int       `json:"group"`
}

// provisionGolden provisions every case and renders flows, IDs, routes and
// the group map as testdata/provision_golden.json holds them.
func provisionGolden(t *testing.T) []byte {
	t.Helper()
	var out []provisionedLoad
	for _, c := range provisionCases() {
		p := DefaultSyntheticParams(c.fabric.N(), 200)
		p.RouteChoices = c.choices
		load, err := Synthetic(c.fabric, p, rand.New(rand.NewSource(c.seed)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range load.Flows {
			load.Flows[i].WeightHops = c.weight
		}
		pristine := load.Clone()
		got, red := Provision(c.fabric, load, c.k, c.crit, c.stretch)
		if !reflect.DeepEqual(load, pristine) {
			t.Fatalf("%s: Provision modified its input", c.name)
		}
		if err := got.Validate(c.fabric); err != nil {
			t.Fatalf("%s: provisioned load invalid: %v", c.name, err)
		}
		pl := provisionedLoad{Name: c.name, Group: red.Group}
		for _, f := range got.Flows {
			pl.Flows = append(pl.Flows, provisionedFlow{f.ID, f.Size, f.Src, f.Dst, f.WeightHops, f.Routes})
		}
		out = append(out, pl)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestProvisionGolden holds Provision to the loads the original
// mark-critical, add-alternates, expand chain produced: the same flows and
// routes, copy IDs past the load's maximum in flow order, the same group
// map. The file is never regenerated to make a change pass.
func TestProvisionGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "provision_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := provisionGolden(t); !bytes.Equal(got, want) {
		t.Fatal("provisioned loads differ from testdata/provision_golden.json")
	}
}
