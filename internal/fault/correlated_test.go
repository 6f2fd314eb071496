package fault

import (
	"bytes"
	"reflect"
	"testing"

	"octopus/internal/graph"
)

func TestNodeLinksDownCoversIncidentSet(t *testing.T) {
	g := graph.Complete(5)
	evs := NodeLinksDown(g, 2, 7)
	// Complete(5): node 2 has 4 outgoing and 4 incoming links.
	if len(evs) != 8 {
		t.Fatalf("%d events, want 8", len(evs))
	}
	seen := map[graph.Edge]bool{}
	for _, e := range evs {
		if e.At != 7 || e.Kind != LinkDown {
			t.Fatalf("unexpected event %+v", e)
		}
		if e.From != 2 && e.To != 2 {
			t.Fatalf("event %+v not incident to node 2", e)
		}
		seen[graph.Edge{From: e.From, To: e.To}] = true
	}
	if len(seen) != 8 {
		t.Fatalf("duplicate links in burst: %v", evs)
	}
	// After the burst the node is isolated but still up: every incident
	// link is unusable, every other link survives.
	tr := &Trace{Events: evs}
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	c.AdvanceTo(7)
	if !c.NodeUsable(2) {
		t.Fatal("correlated burst must leave the node itself up")
	}
	surviving := c.SurvivingOf(g)
	if got := surviving.M(); got != g.M()-8 {
		t.Fatalf("surviving fabric has %d links, want %d", got, g.M()-8)
	}
	if len(surviving.Out(2)) != 0 || len(surviving.In(2)) != 0 {
		t.Fatal("node 2 still has usable links after its burst")
	}
}

func TestCorrelatedTraceDownUpCycle(t *testing.T) {
	g := graph.Complete(4)
	tr := CorrelatedTrace(g, []int{1, 3}, 10, 50, 20)
	if err := tr.Validate(g); err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor()
	c.AdvanceTo(9)
	if c.AnyDown() {
		t.Fatal("failures before the first burst")
	}
	c.AdvanceTo(10)
	if c.FailedLinks() != 6 {
		t.Fatalf("burst 0: %d failed links, want 6", c.FailedLinks())
	}
	c.AdvanceTo(30) // burst 0 restored at 10+20
	if c.AnyDown() {
		t.Fatalf("burst 0 not restored: %d links down", c.FailedLinks())
	}
	c.AdvanceTo(60) // burst 1 fires at 10+50
	if c.FailedLinks() != 6 {
		t.Fatalf("burst 1: %d failed links, want 6", c.FailedLinks())
	}
	c.AdvanceTo(80)
	if c.AnyDown() {
		t.Fatal("burst 1 not restored")
	}
}

func TestCorrelatedTraceJSONRoundTrip(t *testing.T) {
	g := graph.ChordRing(8, 3)
	tr := CorrelatedTrace(g, []int{0, 5, 2}, 5, 30, 10)
	tr.DeltaJitter = []int{0, 3}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip changed the trace:\n%+v\nvs\n%+v", got, tr)
	}
	if err := got.Validate(g); err != nil {
		t.Fatal(err)
	}
}
