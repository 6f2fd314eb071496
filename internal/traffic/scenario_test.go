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
		{Scenario{N: 8, Window: 100, InterLinks: 3}, "-interlinks shapes only the pod fabric"},
		{Scenario{N: 8, Window: 100, InterPod: 0.9}, "-interpod shapes only the pod-synthetic load"},
		{Scenario{N: 8, Window: 100, Pods: 2, Trace: "fb-db", InterPod: 0.9}, "-interpod shapes only the pod-synthetic load"},
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

// TestScenarioRejectsOutOfRange: a value no instance can have is an error,
// never a panic, a negative flow size or a silently dropped field. Fabric
// checks what a fabric reads (mhsd builds one with no Window); Load and
// Emit check everything.
func TestScenarioRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		sc     Scenario
		fabric bool // Fabric refuses it too
		want   string
	}{
		{Scenario{N: -4, Window: 100}, true, "at least 2 nodes"},
		{Scenario{N: 1, Window: 100}, true, "at least 2 nodes"},
		{Scenario{N: 8, Window: 100, Deg: -1}, true, "must not be negative"},
		{Scenario{N: 8, Window: 100, Pods: 2, InterLinks: -1}, true, "must not be negative"},
		{Scenario{N: 8, Window: -10}, false, "-window -10"},
		{Scenario{N: 8, Window: 0}, false, "-window 0"},
		{Scenario{N: 8, Window: 300, Skew: 150}, false, "-skew 150"},
		{Scenario{N: 8, Window: 300, Skew: -5}, false, "-skew -5"},
		{Scenario{N: 8, Window: 100, Flows: -3}, false, "must not be negative"},
		{Scenario{N: 8, Window: 100, Routes: -1}, false, "must not be negative"},
		{Scenario{N: 8, Window: 100, FixedHops: -2}, false, "must not be negative"},
	} {
		rng := rand.New(rand.NewSource(1))
		_, ferr := tc.sc.Fabric(rng)
		if (ferr != nil) != tc.fabric {
			t.Errorf("%+v: Fabric err = %v, want refused = %v", tc.sc, ferr, tc.fabric)
		}
		_, lerr := tc.sc.Load(nil, rng)
		eerr := tc.sc.Emit(rng, func(Flow) error { return nil })
		for _, err := range []error{lerr, eerr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%+v: err = %v, want %q", tc.sc, err, tc.want)
			}
		}
	}
	// mhsd's fabric: nodes and a degree, no load fields.
	if _, err := (Scenario{N: 8, Deg: 3}).Fabric(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	// The edges of the ranges are instances.
	for _, sc := range []Scenario{{N: 2, Window: 1}, {N: 8, Window: 300, Skew: 100}} {
		rng := rand.New(rand.NewSource(1))
		if err := sc.Emit(rng, func(f Flow) error { return checkStreamFlow(&f) }); err != nil {
			t.Errorf("%+v: %v", sc, err)
		}
	}
}
