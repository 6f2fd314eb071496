package algo

import (
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// podInstance builds a pod fabric and a matching mixed intra/inter-pod
// load for the sharded scheduler tests.
func podInstance(t *testing.T, pods, podSize, window int, seed int64) (*graph.Digraph, *traffic.Load) {
	t.Helper()
	p := traffic.DefaultPodParams(pods, podSize, window)
	s, err := traffic.PodSynthetic(p, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	g := p.Fabric()
	if err := s.Materialize(nil).Validate(g); err != nil {
		t.Fatal(err)
	}
	return g, s.Materialize(nil)
}

func TestOctopusShardedOnPodFabric(t *testing.T) {
	a, ok := Lookup("octopus-sharded")
	if !ok {
		t.Fatal("octopus-sharded not registered")
	}
	base, _ := Lookup("octopus")
	g, load := podInstance(t, 4, 6, 96, 17)
	p := Params{Window: 96, Delta: 2, Pods: 4}
	out, err := a.Run(g, load, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Algo != "octopus-sharded" || !out.Measured {
		t.Fatalf("outcome %q measured=%v", out.Algo, out.Measured)
	}
	if _, err := out.Verify(); err != nil {
		t.Fatalf("sharded outcome fails verification: %v", err)
	}
	if out.Delivered <= 0 || out.Psi <= 0 {
		t.Fatalf("sharded schedule delivered %d packets, psi %d", out.Delivered, out.Psi)
	}
	if out.Schedule.Cost() > p.Window {
		t.Fatalf("merged schedule costs %d slots, window %d", out.Schedule.Cost(), p.Window)
	}
	// Quality: the decomposition trades some ψ for parallel planning, but
	// must stay within the documented reconciliation bound of unsharded
	// octopus on the same instance (DESIGN.md §16).
	bp := p
	bp.Pods = 0
	baseOut, err := base.Run(g, load, bp)
	if err != nil {
		t.Fatal(err)
	}
	if out.Psi*4 < baseOut.Psi*3 {
		t.Fatalf("sharded psi %d below 75%% of unsharded %d", out.Psi, baseOut.Psi)
	}
}

func TestOctopusShardedDeterministicAcrossParallelism(t *testing.T) {
	a, _ := Lookup("octopus-sharded")
	g, load := podInstance(t, 3, 4, 64, 23)
	var first *Outcome
	for _, par := range []int{1, 2, 8} {
		out, err := a.Run(g, load, Params{Window: 64, Delta: 2, Pods: 3, Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if first == nil {
			first = out
			continue
		}
		if !reflect.DeepEqual(out.Schedule, first.Schedule) {
			t.Fatalf("par=%d produced a different schedule", par)
		}
		if out.Psi != first.Psi || out.Delivered != first.Delivered {
			t.Fatalf("par=%d: psi %d delivered %d, want %d/%d",
				par, out.Psi, out.Delivered, first.Psi, first.Delivered)
		}
	}
}

func TestOctopusShardedRejections(t *testing.T) {
	a, _ := Lookup("octopus-sharded")
	g, load := podInstance(t, 3, 4, 64, 31)
	if _, err := a.Run(g, load, Params{Window: 64, Delta: 2, Pods: 5}); err == nil {
		t.Fatal("pods=5 accepted on a 12-node fabric")
	}
	if _, err := a.Run(g, load, Params{Window: 64, Delta: 2, Pods: 3, MultiHop: true}); err == nil {
		t.Fatal("multihop accepted")
	}
	cp, ok := a.(CorePlanner)
	if !ok {
		t.Fatal("octopus-sharded does not implement CorePlanner")
	}
	if _, _, err := cp.CoreOptions(load, Params{Window: 64, Delta: 2, Pods: 3}); err == nil {
		t.Fatal("CoreOptions accepted pods>1")
	}
	if _, _, err := cp.CoreOptions(load, Params{Window: 64, Delta: 2, Pods: 1}); err != nil {
		t.Fatalf("CoreOptions rejected pods=1: %v", err)
	}
}

func TestParseSpecShardedKeys(t *testing.T) {
	a, p, err := ParseSpec("octopus-sharded:pods=8,par=4", Params{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "octopus-sharded" {
		t.Fatalf("resolved %q", a.Name())
	}
	if p.Pods != 8 || p.Parallelism != 4 || p.Window != 256 {
		t.Fatalf("params = %+v", p)
	}
}
