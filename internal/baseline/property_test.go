package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/verify"
)

// Property: over the shared verify.RandomInstance distribution, every
// baseline's schedule passes the independent validator, with the replayed
// metrics matching what the baseline reports.
func TestBaselinesValidateProperty(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			return true
		}
		switch which % 3 {
		case 0: // Eclipse over the one-hop decomposition, exact plan claim.
			oh := OneHopLoad(inst.Load, false)
			_, res, err := Eclipse(inst.G, oh.Load, inst.Window, inst.Delta, core.MatcherExact)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			_, err = verify.Schedule(inst.G, oh.Load, res.Schedule, verify.Options{
				Window: inst.Window,
				Claim:  &verify.Claim{Delivered: res.Delivered, Hops: res.Hops, Psi: res.Psi},
			})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		case 1:
			sim, sch, err := EclipseBased(inst.G, inst.Load, inst.Window, inst.Delta, core.MatcherExact)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			_, err = verify.Schedule(inst.G, inst.Load, sch, verify.Options{
				Window: inst.Window,
				Claim:  &verify.Claim{Delivered: sim.Delivered, Hops: sim.Hops, Psi: sim.Psi},
			})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		default: // RotorNet schedules over the complete fabric.
			sim, sch, err := RotorNet(inst.G, inst.Load, inst.Window, inst.Delta, 0)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			_, err = verify.Schedule(graph.Complete(inst.G.N()), inst.Load, sch, verify.Options{
				Window: inst.Window,
				Claim:  &verify.Claim{Delivered: sim.Delivered, Hops: sim.Hops, Psi: sim.Psi},
			})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
