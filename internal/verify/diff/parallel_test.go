package diff

import (
	"math/rand"
	"testing"

	"octopus/internal/algo"
	"octopus/internal/verify"
)

// TestParallelDifferentialEquivalence pins the parallel α evaluation
// across the whole registry on shared random instances: par=4 must
// reproduce the par=1 run bit-for-bit — same schedule bytes, same claims,
// same metrics. Parallelism is documented as output-invariant; this is the
// harness-level enforcement of that contract, mirroring the observability
// on/off suite.
//
// Algorithms that take no parallelism (rotornet, ub, eclipse-pp, ...)
// are covered too: for them both runs are the plain run, so the
// bit-identity assertion is exact by construction.
func TestParallelDifferentialEquivalence(t *testing.T) {
	instances := 36
	if testing.Short() {
		instances = 12
	}
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for checked < instances {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		checked++
		for _, a := range algo.Registry() {
			p := algo.Params{Window: inst.Window, Delta: inst.Delta, KeepTrace: true}
			var fps [2]string
			for i, par := range []int{1, 4} {
				p.Parallelism = par
				out, err := a.Run(inst.G, inst.Load, p)
				if err != nil {
					t.Fatalf("instance %d: %s par=%d: %v", checked, a.Name(), par, err)
				}
				if fps[i], err = (&Outcome{Outcome: out}).Fingerprint(); err != nil {
					t.Fatal(err)
				}
			}
			if fps[0] != fps[1] {
				t.Errorf("instance %d: %s par=4 diverged from par=1", checked, a.Name())
			}
		}
	}
	t.Logf("parallel equivalence validated on %d instances × %d algorithms", checked, len(algo.Registry()))
}
