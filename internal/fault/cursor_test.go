package fault

import (
	"math"
	"testing"

	"octopus/internal/graph"
)

// TestCursorEmptyTrace pins the boundary behaviour of cursors over traces
// that change nothing: nil and zero-value traces must both yield a cursor
// that reports everything usable at every slot and never announces a change.
func TestCursorEmptyTrace(t *testing.T) {
	g := graph.Complete(4)
	for name, tr := range map[string]*Trace{"nil": nil, "empty": {}} {
		c := tr.Cursor()
		if c.NextChange() != math.MaxInt {
			t.Errorf("%s trace: NextChange = %d before any advance, want MaxInt", name, c.NextChange())
		}
		for _, slot := range []int{0, 0, 1, 1 << 40} {
			c.AdvanceTo(slot)
			if c.AnyDown() {
				t.Errorf("%s trace: AnyDown at slot %d", name, slot)
			}
			if !c.LinkUsable(graph.Edge{From: 0, To: 1}) || !c.NodeUsable(3) {
				t.Errorf("%s trace: link or node unusable at slot %d", name, slot)
			}
		}
		if s := c.SurvivingOf(g); s.M() != g.M() {
			t.Errorf("%s trace: surviving fabric lost edges: %d of %d", name, s.M(), g.M())
		}
	}
}

// TestCursorSingleEvent walks a one-event trace across the event boundary:
// the state a slot-s event establishes must hold at slot s itself (not s+1)
// and the cursor must report no further changes afterwards.
func TestCursorSingleEvent(t *testing.T) {
	tr := &Trace{Events: []Event{{At: 5, Kind: LinkDown, From: 0, To: 1}}}
	c := tr.Cursor()
	e := graph.Edge{From: 0, To: 1}
	c.AdvanceTo(4)
	if !c.LinkUsable(e) {
		t.Fatal("link down before its event slot")
	}
	if c.NextChange() != 5 {
		t.Fatalf("NextChange = %d at slot 4, want 5", c.NextChange())
	}
	c.AdvanceTo(5)
	if c.LinkUsable(e) {
		t.Fatal("link still usable at its down slot")
	}
	if c.FailedLinks() != 1 || !c.AnyDown() {
		t.Fatalf("FailedLinks = %d, AnyDown = %v after the event", c.FailedLinks(), c.AnyDown())
	}
	if c.NextChange() != math.MaxInt {
		t.Fatalf("NextChange = %d after the only event, want MaxInt", c.NextChange())
	}
	// Re-advancing to the same slot must be a no-op, not a re-application.
	c.AdvanceTo(5)
	if c.FailedLinks() != 1 {
		t.Fatalf("re-advance changed state: FailedLinks = %d", c.FailedLinks())
	}
}

// TestCursorEventsPastHorizon covers traces whose events all lie beyond the
// slots a consumer visits: the cursor must keep answering "usable" and keep
// pointing at the future event without ever applying it.
func TestCursorEventsPastHorizon(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 1000, Kind: NodeDown, Node: 2},
		{At: 2000, Kind: LinkDown, From: 0, To: 1},
	}}
	c := tr.Cursor()
	for _, slot := range []int{0, 100, 999} {
		c.AdvanceTo(slot)
		if c.AnyDown() {
			t.Fatalf("slot %d: events past the horizon applied early", slot)
		}
		if c.NextChange() != 1000 {
			t.Fatalf("slot %d: NextChange = %d, want 1000", slot, c.NextChange())
		}
	}
}

// TestSurvivingOfSharesTheHealthyFabric: while nothing is down the surviving
// fabric is g itself, not a copy; from the first failure on it is a fresh
// snapshot without the failed link, and g is shared again after recovery.
func TestSurvivingOfSharesTheHealthyFabric(t *testing.T) {
	g := graph.Complete(4)
	tr := &Trace{Events: []Event{
		{At: 5, Kind: LinkDown, From: 0, To: 1},
		{At: 9, Kind: LinkUp, From: 0, To: 1},
	}}
	c := tr.Cursor()
	c.AdvanceTo(4)
	if c.SurvivingOf(g) != g {
		t.Fatal("healthy cursor copied the fabric")
	}
	c.AdvanceTo(5)
	s := c.SurvivingOf(g)
	if s == g || s.HasEdge(0, 1) || s.M() != g.M()-1 {
		t.Fatalf("degraded snapshot: same=%v, has 0->1=%v, %d of %d links", s == g, s.HasEdge(0, 1), s.M(), g.M())
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("snapshot mutated the fabric")
	}
	c.AdvanceTo(9)
	if c.SurvivingOf(g) != g {
		t.Fatal("recovered cursor copied the fabric")
	}
}

// Backwards advances (TestCursorBackwardsPanics) and duplicate-event
// idempotence (TestCursorUnsortedEventsAndIdempotence) are covered in
// fault_test.go.
