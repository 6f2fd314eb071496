package algo

import (
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

func TestOctopusRedundantProvisioning(t *testing.T) {
	a, ok := Lookup("octopus-redundant")
	if !ok {
		t.Fatal("octopus-redundant not registered")
	}
	g := graph.Complete(8)
	rng := rand.New(rand.NewSource(5))
	load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(8, 200), rng)
	if err != nil {
		t.Fatal(err)
	}
	offered := load.TotalPackets()
	pristine := load.Clone()
	out, err := a.Run(g, load, Params{
		Window: 200, Delta: 4, Redundancy: 3, CritFrac: 0.5, Stretch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Total is the deduplicated offered load, not the inflated copy count.
	if out.Total != offered {
		t.Fatalf("Total = %d, want offered %d", out.Total, offered)
	}
	if out.Delivered > out.Total {
		t.Fatalf("unique delivered %d exceeds offered %d", out.Delivered, out.Total)
	}
	// The planned load carries the expanded copies.
	if len(out.Load.Flows) <= len(load.Flows) {
		t.Fatalf("load was not expanded: %d flows planned for %d offered",
			len(out.Load.Flows), len(load.Flows))
	}
	if _, err := out.Verify(); err != nil {
		t.Fatalf("outcome fails verification: %v", err)
	}
	// The input load is untouched by provisioning.
	if !reflect.DeepEqual(load, pristine) {
		t.Fatal("input load mutated")
	}
}

func TestParseSpecRedundantKeys(t *testing.T) {
	a, p, err := ParseSpec("octopus-redundant:red=3,crit=0.5,stretch=1.5", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "octopus-redundant" {
		t.Fatalf("resolved %q", a.Name())
	}
	if p.Redundancy != 3 || p.CritFrac != 0.5 || p.Stretch != 1.5 {
		t.Fatalf("params not applied: %+v", p)
	}
	if !IsCore(a) {
		t.Fatal("octopus-redundant must be a core planner")
	}
	if _, _, err := ParseSpec("octopus-redundant:crit=x", Params{}); err == nil {
		t.Fatal("malformed crit value accepted")
	}
}
