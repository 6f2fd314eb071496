package verify

import (
	"strings"
	"testing"

	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// TestScheduleRejectsWhatAFailureRemoved: a fault-aware audit is Schedule
// against the fabric that survives the trace at the epoch's boundary. A
// schedule that is valid on the intact fabric is refused once its link, or
// a node its route passes, is down there.
func TestScheduleRejectsWhatAFailureRemoved(t *testing.T) {
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 2, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	sch := &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 2},
	}}
	surviving := func(tr *fault.Trace, slot int) *graph.Digraph {
		c := tr.Cursor()
		c.AdvanceTo(slot)
		return c.SurvivingOf(g)
	}
	tr := &fault.Trace{Events: []fault.Event{{At: 50, Kind: fault.LinkDown, From: 0, To: 1}}}

	// Before the failure the schedule is valid.
	rep, err := Schedule(surviving(tr, 0), load, sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 2 {
		t.Fatalf("delivered %d, want 2", rep.Delivered)
	}
	// From slot 50 on, the same schedule routes over a dead link. The route
	// feasibility check fires first, so the error names the missing link.
	if _, err := Schedule(surviving(tr, 50), load, sch, Options{}); err == nil {
		t.Fatal("schedule over a failed link accepted")
	} else if !strings.Contains(err.Error(), "not a fabric link") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A route through a failed node is equally invalid.
	nodeTr := &fault.Trace{Events: []fault.Event{{At: 0, Kind: fault.NodeDown, Node: 1}}}
	if _, err := Schedule(surviving(nodeTr, 0), load, sch, Options{}); err == nil {
		t.Fatal("route through a failed node accepted")
	}
}
