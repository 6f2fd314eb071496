package diff

import (
	"math/rand"
	"testing"

	"octopus/internal/algo"
	"octopus/internal/obs/flight"
	"octopus/internal/verify"
)

// TestFlightDifferentialEquivalence pins the flight recorder's read-only
// contract across the whole registry: attaching a recorder — exhaustive
// or sampled — must leave every algorithm's outcome bit-identical to the
// recorder-free run (same schedule bytes, same claims, same metrics).
// The sweep covers the paths where a journaling side effect could most
// plausibly leak into planning: par=4 planner workers, and the pod-sharded
// decomposition with pods>1 (where shard planners run in parallel and the
// recorder is fed from the merged measurement pass).
//
// The roster comes from algo.Registry(), so a newly registered algorithm
// inherits the flight on/off pin by construction.
func TestFlightDifferentialEquivalence(t *testing.T) {
	instances := 16
	if testing.Short() {
		instances = 6
	}
	variants := []struct {
		name string
		prep func(p algo.Params, nodes int) algo.Params
	}{
		{"default", func(p algo.Params, _ int) algo.Params { return p }},
		{"par4", func(p algo.Params, _ int) algo.Params {
			p.Parallelism = 4
			return p
		}},
		{"pods", func(p algo.Params, nodes int) algo.Params {
			p.Pods = podDivisor(nodes)
			return p
		}},
	}
	rng := rand.New(rand.NewSource(11))
	checked := 0
	var journaled uint64
	for checked < instances {
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		checked++
		for _, a := range algo.Registry() {
			for _, vr := range variants {
				p := vr.prep(algo.Params{Window: inst.Window, Delta: inst.Delta, KeepTrace: true}, inst.G.N())
				plain, err := a.Run(inst.G, inst.Load, p)
				if err != nil {
					t.Fatalf("instance %d: %s/%s: %v", checked, a.Name(), vr.name, err)
				}
				refFP, err := (&Outcome{Outcome: plain}).Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				for _, sample := range []int{1, 4} {
					fp := p
					rec := flight.New(flight.Config{Sample: sample})
					fp.Flight = rec
					traced, err := a.Run(inst.G, inst.Load, fp)
					if err != nil {
						t.Fatalf("instance %d: %s/%s sample=%d: %v", checked, a.Name(), vr.name, sample, err)
					}
					got, err := (&Outcome{Outcome: traced}).Fingerprint()
					if err != nil {
						t.Fatal(err)
					}
					if got != refFP {
						t.Errorf("instance %d: %s/%s sample=%d: flight recording changed the outcome",
							checked, a.Name(), vr.name, sample)
					}
					journaled += rec.Stats().Events
				}
			}
		}
	}
	// Guard against the pin going vacuous: if the recorder threading ever
	// silently detaches, every journal would come back empty and the
	// bit-identity above would hold trivially.
	if journaled == 0 {
		t.Fatal("no flight events journaled across the whole sweep; recorder threading is broken")
	}
	t.Logf("flight on/off equivalence validated on %d instances × %d algorithms × %d variants (%d events journaled)",
		checked, len(algo.Registry()), len(variants), journaled)
}

// podDivisor picks the largest small pod count that evenly tiles the
// fabric, so the pods variant exercises a genuine pods>1 decomposition
// whenever the instance allows one.
func podDivisor(nodes int) int {
	for _, pods := range []int{4, 3, 2} {
		if nodes%pods == 0 {
			return pods
		}
	}
	return 1
}
