package traffic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestScenarioRejectsDroppedFlags: a combination in which one field would
// silently lose to another is an error from Fabric, Load and Emit alike.
func TestScenarioRejectsDroppedFlags(t *testing.T) {
	m := [][]float64{{0, 1}, {1, 0}}
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{N: 8, Window: 100, Matrix: m, Trace: "fb-db"}, "-matrix excludes"},
		{Scenario{N: 8, Window: 100, Matrix: m, Pods: 2}, "-matrix excludes"},
		{Scenario{N: 8, Window: 100, Matrix: m, Deg: 3}, "-matrix excludes"},
		{Scenario{N: 8, Window: 100, Pods: 2, Deg: 3}, "-pods and -deg"},
		{Scenario{N: 8, Window: 100, Trace: "fb-web", Skew: 40}, "-flows and -skew"},
		{Scenario{N: 8, Window: 100, Pods: 2, Flows: 8}, "-flows and -skew"},
		{Scenario{N: 8, Window: 100, Trace: "fb-nope"}, "unknown trace"},
	} {
		rng := rand.New(rand.NewSource(1))
		_, ferr := tc.sc.Fabric(rng)
		_, lerr := tc.sc.Load(nil, rng)
		eerr := tc.sc.Emit(rng, func(Flow) error { return nil })
		for _, err := range []error{ferr, lerr, eerr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%+v: err = %v, want %q", tc.sc, err, tc.want)
			}
		}
	}
}

// TestScenarioEmitEqualsLoad: Emit hands out exactly the flows Load
// builds — streamed from the pod generator, built for everything else.
func TestScenarioEmitEqualsLoad(t *testing.T) {
	for _, sc := range []Scenario{
		{N: 12, Window: 64, Pods: 3, InterPod: DefaultInterPod},
		{N: 12, Window: 64, Pods: 3, Trace: "ms"},
		{N: 12, Window: 64, Deg: 4, Routes: 2},
		{N: 12, Window: 64, Flows: 8, Skew: 50},
	} {
		rng := rand.New(rand.NewSource(3))
		g, err := sc.Fabric(rng)
		if err != nil {
			t.Fatal(err)
		}
		load, err := sc.Load(g, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := load.Validate(g); err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		var emitted []Flow
		if err := sc.Emit(rand.New(rand.NewSource(3)), func(f Flow) error {
			emitted = append(emitted, f)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(emitted, load.Flows) {
			t.Errorf("%+v: Emit gave %d flows, Load %d", sc, len(emitted), len(load.Flows))
		}
	}
}
