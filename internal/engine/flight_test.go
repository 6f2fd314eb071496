package engine

import (
	"testing"

	"octopus/internal/core"
	"octopus/internal/obs/flight"
)

// TestFlightMatcherCodesMirrorCore pins the flight wire codes to the
// core.Matcher enum and both to their numeric values, which journals on
// disk carry. The flight package cannot import core (it sits below the
// scheduler layers), so it mirrors the values; this test is the pin that
// promise relies on — if core ever renumbers or grows the enum, the mirror
// must be updated in the same change.
func TestFlightMatcherCodesMirrorCore(t *testing.T) {
	pairs := []struct {
		name   string
		wire   int64
		core   core.Matcher
		flight int64
	}{
		{"exact", 0, core.MatcherExact, flight.MatcherExact},
		{"greedy", 1, core.MatcherGreedy, flight.MatcherGreedy},
	}
	for _, p := range pairs {
		if int64(p.core) != p.wire || p.flight != p.wire {
			t.Errorf("matcher %s: core=%d flight=%d, want wire code %d", p.name, int64(p.core), p.flight, p.wire)
		}
	}
}
