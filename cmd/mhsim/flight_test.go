package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octopus/internal/obs"
	"octopus/internal/obs/flight"
)

// readFlightLog decodes a -flight-out file with the decision-trace decoder
// (the two journals share one envelope): the sampling denominator of its
// "flight" record and the flow records after it.
func readFlightLog(t *testing.T, path string) (sample int64, events []obs.Record) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.DecodeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Ev != "flight" {
		t.Fatalf("%s does not start with a flight record", path)
	}
	sample, _ = recs[0].Int("sample")
	return sample, recs[1:]
}

// TestFlightOut pins the -flight-out surface: the journal decodes with the
// trace decoder, covers the load's lifecycle, and recording leaves the
// measured outcome bit-identical (same stdout as a recorder-free run).
func TestFlightOut(t *testing.T) {
	args := []string{"-n", "6", "-window", "300", "-algo", "octopus", "-seed", "7"}
	var plain bytes.Buffer
	if err := run(args, &plain, os.Stderr); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "flight.jsonl")
	var traced bytes.Buffer
	var errOut bytes.Buffer
	if err := run(append(args, "-flight-out", path), &traced, &errOut); err != nil {
		t.Fatal(err)
	}
	if plain.String() != traced.String() {
		t.Fatalf("flight recording changed the outcome:\nplain:\n%straced:\n%s", plain.String(), traced.String())
	}
	if !strings.Contains(errOut.String(), "flight events") {
		t.Fatalf("missing journal summary on stderr: %q", errOut.String())
	}

	sample, events := readFlightLog(t, path)
	if sample != 1 || len(events) == 0 {
		t.Fatalf("sample %d with %d events", sample, len(events))
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Ev] = true
	}
	for _, want := range []flight.Kind{flight.KindAdmitted, flight.KindHop, flight.KindDelivered} {
		if !kinds["flow."+want.String()] {
			t.Fatalf("journal missing %s events (have %v)", want, kinds)
		}
	}
}

// TestFlightOutSampled checks the sample=N spec key thins the journal to
// the deterministic flow subset.
func TestFlightOutSampled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	err := run([]string{"-n", "8", "-window", "300", "-algo", "octopus:sample=4", "-seed", "3",
		"-flight-out", path}, &bytes.Buffer{}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	sample, events := readFlightLog(t, path)
	if sample != 4 {
		t.Fatalf("header sample %d, want 4", sample)
	}
	ref := flight.New(flight.Config{Sample: 4})
	for _, e := range events {
		if id, ok := e.Int("flow"); !ok || !ref.Tracks(id) {
			t.Fatalf("journal holds unsampled flow %d (%s, seq %d)", id, e.Ev, e.Seq)
		}
	}
}
