package diff

import (
	"math/rand"
	"testing"

	"octopus/internal/algo"
	"octopus/internal/verify"
)

// TestDifferentialSuite runs every algorithm over ≥200 shared random
// instances: every schedule must pass the independent validator with the
// scheduler's claimed metrics, every run must be deterministic, and the
// cheap Octopus variants must stay near plain Octopus in aggregate.
func TestDifferentialSuite(t *testing.T) {
	instances := 208
	if testing.Short() {
		instances = 60
	}
	rng := rand.New(rand.NewSource(42))
	runners := Runners()
	delivered := make(map[string]int, len(runners))
	checked := 0
	for checked < instances {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		checked++
		for _, r := range runners {
			out, err := r.Run(inst)
			if err != nil {
				t.Fatalf("instance %d: %s failed to run: %v", checked, r.Name, err)
			}
			rep, err := out.Check()
			if err != nil {
				t.Fatalf("instance %d: %s: %v", checked, r.Name, err)
			}
			if rep.Delivered < 0 || rep.Psi < 0 {
				t.Fatalf("instance %d: %s: negative replay metrics %+v", checked, r.Name, rep)
			}
			if r.Core {
				delivered[r.Name] += rep.Delivered
			}
			if checked%3 == 0 {
				fp1, err := out.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				again, err := r.Run(inst)
				if err != nil {
					t.Fatal(err)
				}
				fp2, err := again.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if fp1 != fp2 {
					t.Fatalf("instance %d: %s is nondeterministic", checked, r.Name)
				}
			}
		}
	}
	t.Logf("validated %d instances × %d algorithms; core delivered totals: %v",
		checked, len(runners), delivered)

	// Aggregate variant gaps (per-instance ratios are too noisy on tiny
	// loads; the documented gaps are the package-level expectations of
	// octopus_test.go, checked here across the whole suite).
	full := delivered["octopus"]
	if full == 0 {
		t.Fatal("plain Octopus delivered nothing across the suite")
	}
	if bin := delivered["octopus-b"]; float64(bin) < 0.8*float64(full) {
		t.Errorf("Octopus-B delivered %d, below 0.8× plain Octopus %d", bin, full)
	}
	if greedy := delivered["octopus-g"]; float64(greedy) < 0.75*float64(full) {
		t.Errorf("Octopus-G delivered %d, below 0.75× plain Octopus %d", greedy, full)
	}
}

// TestRunnersCoverRoster guards the differential suite's coverage claim:
// the roster is exactly the algorithm registry, in order, with the Core
// flag matching the registry's own classification. A new algorithm cannot
// be registered without landing under differential test.
func TestRunnersCoverRoster(t *testing.T) {
	runners := Runners()
	reg := algo.Registry()
	if len(runners) != len(reg) {
		t.Fatalf("roster has %d runners, registry has %d algorithms", len(runners), len(reg))
	}
	seen := map[string]bool{}
	for i, r := range runners {
		if seen[r.Name] {
			t.Fatalf("duplicate runner %q", r.Name)
		}
		seen[r.Name] = true
		if r.Name != reg[i].Name() {
			t.Errorf("runner %d is %q, registry lists %q", i, r.Name, reg[i].Name())
		}
		if r.Core != algo.IsCore(reg[i]) {
			t.Errorf("runner %q: Core=%v, registry says %v", r.Name, r.Core, algo.IsCore(reg[i]))
		}
	}
}
