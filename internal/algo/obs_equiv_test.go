package algo

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/obs"
)

// TestRegistryObsEquivalence pins the observability layer's read-only
// contract across the whole registry: running any algorithm with a live
// Observer (metrics registry plus decision tracer) must produce an Outcome
// bit-identical to the uninstrumented run — same metrics, same schedule,
// configuration for configuration. CI runs this under -race, which also
// exercises the instrument hot paths for data races at full parallelism.
func TestRegistryObsEquivalence(t *testing.T) {
	g, load := testInstance(t, 47)
	for _, a := range Registry() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			p := Params{Window: 120, Delta: 4, Rng: rand.New(rand.NewSource(1))}
			plain, err := a.Run(g, load, p)
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			p.Obs = &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(&trace)}
			p.Rng = rand.New(rand.NewSource(1))
			inst, err := a.Run(g, load, p)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Delivered != inst.Delivered || plain.Hops != inst.Hops ||
				plain.Psi != inst.Psi || plain.Total != inst.Total ||
				plain.Reconfigs != inst.Reconfigs || plain.SlotsUsed != inst.SlotsUsed ||
				plain.ActiveLinkSlots != inst.ActiveLinkSlots {
				t.Errorf("metrics drifted under instrumentation:\nplain: %d/%d hops %d psi %d reconfigs %d slots %d active %d\ninstr: %d/%d hops %d psi %d reconfigs %d slots %d active %d",
					plain.Delivered, plain.Total, plain.Hops, plain.Psi, plain.Reconfigs, plain.SlotsUsed, plain.ActiveLinkSlots,
					inst.Delivered, inst.Total, inst.Hops, inst.Psi, inst.Reconfigs, inst.SlotsUsed, inst.ActiveLinkSlots)
			}
			if (plain.Schedule == nil) != (inst.Schedule == nil) {
				t.Fatalf("schedule presence changed: plain=%v instrumented=%v",
					plain.Schedule != nil, inst.Schedule != nil)
			}
			if plain.Schedule != nil {
				if plain.Schedule.Delta != inst.Schedule.Delta ||
					!reflect.DeepEqual(plain.Schedule.Configs, inst.Schedule.Configs) {
					t.Error("schedule drifted under instrumentation")
				}
			}
			if err := p.Obs.Trace.Err(); err != nil {
				t.Errorf("tracer error: %v", err)
			}
		})
	}
}
