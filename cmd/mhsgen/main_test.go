package main

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

var update = flag.Bool("update", false, "rewrite golden files from current generator output")

// goldenArgs is the pinned generation setup for the golden-file test.
var goldenArgs = []string{"-n", "8", "-window", "300", "-seed", "7", "-routes", "2", "-skew", "30", "-flows", "16"}

// gen runs mhsgen with args and returns what it wrote to stdout.
func gen(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("mhsgen %v: %v", args, err)
	}
	return out.Bytes()
}

// scenarioJSON is the classic document of sc's load at seed 1: what mhsim
// plans for the flags that describe sc.
func scenarioJSON(t *testing.T, sc traffic.Scenario) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := sc.Fabric(rng)
	if err != nil {
		t.Fatal(err)
	}
	load, err := sc.Load(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := load.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSyntheticLoad pins the generator output: the generated load
// must match the checked-in golden JSON byte for byte, survive a
// ReadJSON round-trip, and be route-feasible on its topology.
func TestGoldenSyntheticLoad(t *testing.T) {
	g := graph.Complete(8)
	out := gen(t, goldenArgs...)
	goldenPath := filepath.Join("testdata", "golden_synthetic.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test ./cmd/mhsgen -update): %v", err)
	}
	if !bytes.Equal(out, golden) {
		t.Fatalf("generated load drifted from %s (%d vs %d bytes); regenerate deliberately if the change is intended",
			goldenPath, len(out), len(golden))
	}

	// Round-trip: parse the emitted JSON back and compare.
	back, err := traffic.ReadJSON(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, buf2.Bytes()) {
		t.Fatal("JSON round trip is not byte-stable")
	}

	// Route feasibility on the generation topology, checked by both the
	// load's own validator and the independent one in internal/verify.
	if err := back.Validate(g); err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Schedule(g, back, &schedule.Schedule{}, verify.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenPodLoad pins the pod-structured generator: the streamed JSONL
// output for a small pod load must match the checked-in golden file byte
// for byte, decode back identically through the stream reader, and be
// route-feasible on the pod fabric.
func TestGoldenPodLoad(t *testing.T) {
	out := gen(t, "-n", "12", "-window", "64", "-seed", "7", "-pods", "3", "-interpod", "0.3", "-format", "jsonl")
	goldenPath := filepath.Join("testdata", "golden_pods.jsonl")
	if *update {
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test ./cmd/mhsgen -update): %v", err)
	}
	if !bytes.Equal(out, golden) {
		t.Fatalf("pod generator drifted from %s (%d vs %d bytes); regenerate deliberately if the change is intended",
			goldenPath, len(out), len(golden))
	}

	// The stream decodes back to the same load the classic document holds.
	store, err := traffic.ReadStore(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var stream, doc bytes.Buffer
	if err := store.Materialize(nil).WriteJSON(&stream); err != nil {
		t.Fatal(err)
	}
	doc.Write(gen(t, "-n", "12", "-window", "64", "-seed", "7", "-pods", "3", "-interpod", "0.3"))
	if !bytes.Equal(stream.Bytes(), doc.Bytes()) {
		t.Fatal("the jsonl stream and the json document hold different loads")
	}
	if err := store.Materialize(nil).Validate(graph.Pods(3, 4, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestBuildLoadVariants exercises the non-default generator paths: each
// flag set writes the load mhsim plans for the same flags.
func TestBuildLoadVariants(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sc   traffic.Scenario
	}{
		// -flows and -skew default to the paper's n-scaled mix, as in mhsim.
		{[]string{"-n", "24", "-window", "1000"}, traffic.Scenario{N: 24, Window: 1000}},
		{[]string{"-n", "8", "-window", "100", "-trace", "fb-db"}, traffic.Scenario{N: 8, Window: 100, Trace: "fb-db"}},
		{[]string{"-n", "12", "-window", "600", "-trace", "fb-hadoop", "-routes", "3"},
			traffic.Scenario{N: 12, Window: 600, Trace: "fb-hadoop", Routes: 3}},
		{[]string{"-n", "12", "-window", "600", "-trace", "ms", "-fixed-hops", "2"},
			traffic.Scenario{N: 12, Window: 600, Trace: "ms", FixedHops: 2}},
		{[]string{"-n", "24", "-window", "96", "-pods", "4"},
			traffic.Scenario{N: 24, Window: 96, Pods: 4, InterPod: traffic.DefaultInterPod}},
		// -pods -trace is the trace-like load over the pod fabric.
		{[]string{"-n", "24", "-window", "96", "-pods", "4", "-trace", "fb-web"},
			traffic.Scenario{N: 24, Window: 96, Pods: 4, Trace: "fb-web"}},
	} {
		got := gen(t, tc.args...)
		if want := scenarioJSON(t, tc.sc); !bytes.Equal(got, want) {
			t.Errorf("mhsgen %v wrote %d bytes, the scenario's load is %d", tc.args, len(got), len(want))
		}
	}
	if bytes.Equal(gen(t, "-n", "24", "-window", "96", "-pods", "4", "-trace", "fb-web"), gen(t, "-n", "24", "-window", "96", "-pods", "4")) {
		t.Error("-pods ignored -trace")
	}

	csv := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(csv, []byte("0,40,10\n5,0,20\n15,25,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	load, err := traffic.ReadJSON(bytes.NewReader(gen(t, "-matrix", csv)))
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Validate(graph.Complete(3)); err != nil {
		t.Fatal(err)
	}

	// Unknown names and flags that would be dropped are errors.
	for _, args := range [][]string{
		{"-trace", "no-such-trace"},
		{"-matrix", csv, "-trace", "fb-db"},
		{"-matrix", csv, "-pods", "3"},
		{"-trace", "fb-db", "-skew", "40"},
		{"-format", "xml"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("mhsgen %v accepted", args)
		}
	}

	// Generation is deterministic in the seed.
	if !bytes.Equal(gen(t, goldenArgs...), gen(t, goldenArgs...)) {
		t.Fatal("same seed produced different loads")
	}
}
