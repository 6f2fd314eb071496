package algo

import (
	"math/rand"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// testInstance builds a small seeded MHS instance with multi-route,
// multi-hop flows so every registered algorithm has something to chew on.
func testInstance(t *testing.T, seed int64) (*graph.Digraph, *traffic.Load) {
	t.Helper()
	g := graph.Complete(8)
	rng := rand.New(rand.NewSource(seed))
	p := traffic.DefaultSyntheticParams(8, 120)
	p.RouteChoices = 3
	load, err := traffic.Synthetic(g, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(load.Flows) == 0 {
		t.Fatal("empty test load")
	}
	return g, load
}

// TestRegistryCompleteness is the registry-wide smoke-and-verify suite:
// every registered algorithm must run on a small seeded instance, deliver
// a self-consistent Outcome, and pass its own verification recipe
// (verify.Schedule for schedule producers, the metric invariants for
// schedule-free algorithms).
func TestRegistryCompleteness(t *testing.T) {
	g, load := testInstance(t, 11)
	offered := load.TotalPackets()
	for _, a := range Registry() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			out, err := a.Run(g, load, Params{Window: 120, Delta: 4, Seed: 1, KeepTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.Algo != a.Name() {
				t.Errorf("Outcome.Algo = %q, want %q", out.Algo, a.Name())
			}
			if out.Total <= 0 {
				t.Errorf("no offered packets in outcome (%d)", out.Total)
			}
			if out.Delivered < 0 || out.Delivered > out.Total {
				t.Errorf("delivered %d of %d", out.Delivered, out.Total)
			}
			if out.Hops < out.Delivered {
				t.Errorf("delivered %d over %d hops", out.Delivered, out.Hops)
			}
			if out.Total != offered {
				t.Errorf("total %d, offered %d", out.Total, offered)
			}
			if (a.Kind() == Offline) != (out.Schedule != nil) {
				t.Errorf("kind %s with schedule=%v", a.Kind(), out.Schedule != nil)
			}
			if _, err := out.Verify(); err != nil {
				t.Errorf("verification failed: %v", err)
			}
		})
	}
}

// TestRegistryDeterministic reruns every algorithm on the same instance
// and params: metrics and schedule shape must be identical (octopus-random
// must re-draw the same routes from Seed).
func TestRegistryDeterministic(t *testing.T) {
	g, load := testInstance(t, 23)
	for _, a := range Registry() {
		p := Params{Window: 100, Delta: 3, Seed: 9}
		o1, err := a.Run(g, load, p)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		o2, err := a.Run(g, load, p)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if o1.Delivered != o2.Delivered || o1.Hops != o2.Hops || o1.Psi != o2.Psi {
			t.Errorf("%s: nondeterministic metrics: %d/%d/%d vs %d/%d/%d",
				a.Name(), o1.Delivered, o1.Hops, o1.Psi, o2.Delivered, o2.Hops, o2.Psi)
		}
	}
}

// TestRegistryRunsDoNotMutateLoad guards the Algorithm contract: Run must
// not modify the caller's load (octopus-random and the Eclipse baselines resolve clones).
func TestRegistryRunsDoNotMutateLoad(t *testing.T) {
	g, load := testInstance(t, 31)
	pristine := load.Clone()
	for _, a := range Registry() {
		if _, err := a.Run(g, load, Params{Window: 80, Delta: 2, Seed: 4}); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if len(load.Flows) != len(pristine.Flows) {
			t.Fatalf("%s: flow count changed", a.Name())
		}
		for i := range load.Flows {
			if load.Flows[i].Size != pristine.Flows[i].Size ||
				len(load.Flows[i].Routes) != len(pristine.Flows[i].Routes) {
				t.Fatalf("%s mutated flow %d", a.Name(), i)
			}
		}
	}
}

func TestRegistryListing(t *testing.T) {
	reg := Registry()
	if len(reg) == 0 {
		t.Fatal("empty registry")
	}
	names := Names()
	if len(names) != len(reg) {
		t.Fatalf("Names() has %d entries, registry %d", len(names), len(reg))
	}
	seen := map[string]bool{}
	for i, a := range reg {
		if a.Name() == "" || a.Describe() == "" {
			t.Errorf("algorithm %d has empty name or description", i)
		}
		if seen[a.Name()] {
			t.Errorf("duplicate name %q", a.Name())
		}
		seen[a.Name()] = true
		if names[i] != a.Name() {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], a.Name())
		}
		got, ok := Lookup(a.Name())
		if !ok || got.Name() != a.Name() {
			t.Errorf("Lookup(%q) failed", a.Name())
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Error("Lookup accepted unknown name")
	}
	// The core family is exactly the set of CorePlanner implementations,
	// and must include the fault-replay-capable variants.
	coreSet := map[string]bool{}
	for _, n := range CoreNames() {
		coreSet[n] = true
	}
	for _, n := range []string{"octopus", "octopus-g", "octopus-b", "octopus-e", "chained", "octopus-plus", "octopus-random"} {
		if !coreSet[n] {
			t.Errorf("%s missing from CoreNames()", n)
		}
	}
	for _, n := range []string{"rotornet", "ub", "eclipse-based", "eclipse-pp"} {
		if coreSet[n] {
			t.Errorf("%s wrongly classified as core", n)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(octopusAlgo())
}
