package engine

import (
	"bytes"
	"reflect"
	"testing"

	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/traffic"
)

// TestFaultyObsEquivalence checks the read-only contract through the
// fault-tolerant online pipeline: a run with a live Observer must reproduce
// the uninstrumented run epoch for epoch.
func TestFaultyObsEquivalence(t *testing.T) {
	g := graph.Complete(5)
	arr := []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 7, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}}, At: 0},
		{Flow: traffic.Flow{ID: 2, Size: 4, Src: 3, Dst: 4, Routes: []traffic.Route{{3, 4}}}, At: 10},
	}
	tr := &fault.Trace{Events: []fault.Event{
		{At: 12, Kind: fault.LinkDown, From: 1, To: 2},
		{At: 40, Kind: fault.LinkUp, From: 1, To: 2},
	}}
	cfg := faulty(window(12, 3), tr)
	plain, err := Run(g, arr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	reg := obs.NewRegistry()
	cfg.Core.Obs = &obs.Observer{Metrics: reg, Trace: obs.NewTracer(&trace)}
	inst, err := Run(g, arr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Core.Obs.Trace.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	if inst.Totals != plain.Totals {
		t.Fatalf("totals diverge: %+v vs %+v", inst.Totals, plain.Totals)
	}
	if !reflect.DeepEqual(inst.Epochs, plain.Epochs) {
		t.Fatalf("epoch stats diverge under instrumentation:\n%+v\n%+v", inst.Epochs, plain.Epochs)
	}
	if !reflect.DeepEqual(inst.Completion, plain.Completion) {
		t.Fatalf("completions diverge: %v vs %v", inst.Completion, plain.Completion)
	}

	// The online layer's own counters reflect the run.
	if got, want := reg.Value("octopus_online_epochs_total"), int64(len(inst.Epochs)); got != want {
		t.Errorf("octopus_online_epochs_total = %d, want %d", got, want)
	}
	if got := reg.Value("octopus_online_delivered_total"); got != int64(inst.Delivered) {
		t.Errorf("octopus_online_delivered_total = %d, want %d", got, inst.Delivered)
	}
	if got := reg.Value("octopus_online_rerouted_total"); got <= 0 {
		t.Errorf("octopus_online_rerouted_total = %d, want > 0 (the trace kills flow 1's only route)", got)
	}
}
