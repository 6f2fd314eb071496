package main

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

var update = flag.Bool("update", false, "rewrite the -emit golden files from current generator output")

// goldenArgs is the pinned generation setup for the golden-file test.
var goldenArgs = []string{"-n", "8", "-window", "300", "-seed", "7", "-routes", "2", "-skew", "30", "-flows", "16"}

// emit runs mhsim -emit - with args and returns what it wrote to stdout.
func emit(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(slices.Concat(args, []string{"-emit", "-"}), &out, io.Discard); err != nil {
		t.Fatalf("mhsim %v -emit -: %v", args, err)
	}
	return out.Bytes()
}

// checkGolden compares out with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, out []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test ./cmd/mhsim -run Golden -update): %v", err)
	}
	if !bytes.Equal(out, golden) {
		t.Fatalf("emitted load drifted from %s (%d vs %d bytes); regenerate deliberately if the change is intended",
			path, len(out), len(golden))
	}
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

// TestGoldenSyntheticLoad pins the generator output: the emitted load must
// match the checked-in golden JSON byte for byte, survive a ReadJSON
// round-trip, and be route-feasible on its topology.
func TestGoldenSyntheticLoad(t *testing.T) {
	g := graph.Complete(8)
	out := emit(t, goldenArgs...)
	checkGolden(t, "golden_synthetic.json", out)

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
	pods := []string{"-n", "12", "-window", "64", "-seed", "7", "-pods", "3", "-interpod", "0.3"}
	out := emit(t, append(pods, "-format", "jsonl")...)
	checkGolden(t, "golden_pods.jsonl", out)

	// The stream decodes back to the same load the classic document holds.
	store, err := traffic.ReadStore(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := store.Materialize(nil).WriteJSON(&stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), emit(t, pods...)) {
		t.Fatal("the jsonl stream and the json document hold different loads")
	}
	if err := store.Materialize(nil).Validate(graph.Pods(3, 4, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestBuildLoadVariants exercises the non-default generator paths: each
// flag set emits the load mhsim plans for the same flags.
func TestBuildLoadVariants(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sc   traffic.Scenario
	}{
		// -flows and -skew default to the paper's n-scaled mix.
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
		// -deg emits the load over the partial fabric it draws first.
		{[]string{"-n", "12", "-window", "200", "-deg", "4"}, traffic.Scenario{N: 12, Window: 200, Deg: 4}},
	} {
		got := emit(t, tc.args...)
		if want := scenarioJSON(t, tc.sc); !bytes.Equal(got, want) {
			t.Errorf("mhsim %v -emit - wrote %d bytes, the scenario's load is %d", tc.args, len(got), len(want))
		}
	}
	if bytes.Equal(emit(t, "-n", "24", "-window", "96", "-pods", "4", "-trace", "fb-web"), emit(t, "-n", "24", "-window", "96", "-pods", "4")) {
		t.Error("-pods ignored -trace")
	}

	csv := filepath.Join(t.TempDir(), "m.csv")
	if err := os.WriteFile(csv, []byte("0,40,10\n5,0,20\n15,25,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	load, err := traffic.ReadJSON(bytes.NewReader(emit(t, "-matrix", csv)))
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
		// -interpod shapes only the pod-synthetic load, -interlinks only
		// the pod fabric.
		{"-n", "8", "-window", "100", "-interlinks", "3", "-interpod", "0.9"},
		{"-n", "8", "-window", "100", "-interpod", "0.9"},
		{"-n", "8", "-window", "100", "-interlinks", "3"},
		{"-n", "8", "-window", "100", "-pods", "2", "-trace", "fb-db", "-interpod", "0.9"},
	} {
		if err := run(append(args, "-emit", "-"), io.Discard, io.Discard); err == nil {
			t.Errorf("mhsim %v -emit - accepted", args)
		}
	}

	// Generation is deterministic in the seed.
	if !bytes.Equal(emit(t, goldenArgs...), emit(t, goldenArgs...)) {
		t.Fatal("same seed produced different loads")
	}
}

// TestEmitThenLoadPlansInPlace: a load mhsim -emit writes plans under
// -load, beside the same fabric and plan flags, exactly as mhsim plans the
// same flags in place, in every encoding.
func TestEmitThenLoadPlansInPlace(t *testing.T) {
	for _, flags := range []string{
		"-n 24 -window 1000",
		"-n 12 -window 600 -trace fb-hadoop -routes 3",
		"-n 12 -window 600 -trace ms -fixed-hops 2",
		"-n 24 -window 96 -pods 4",
	} {
		args := append(strings.Fields(flags), "-seed", "1")
		plan := slices.Concat(args, []string{"-delta", "10", "-algo", "octopus-g"})
		var inPlace bytes.Buffer
		if err := run(plan, &inPlace, io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"json", "jsonl", "bin"} {
			path := filepath.Join(t.TempDir(), "load."+format)
			if err := run(slices.Concat(args, []string{"-emit", path, "-format", format}), io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			var fromFile bytes.Buffer
			if err := run(slices.Concat(withoutLoadFlags(plan), []string{"-load", path}), &fromFile, io.Discard); err != nil {
				t.Fatal(err)
			}
			if fromFile.String() != inPlace.String() {
				t.Errorf("%s, %s: in place\n%s\nfrom the emitted file\n%s", flags, format, inPlace.String(), fromFile.String())
			}
		}
	}
}

// TestEmitAndStatsRefuseDroppedFlags: -emit reads only the generation
// flags, -stats only its file, -fig only its scale and overrides and
// -replay only the load, the fabric, -faults and the sinks; any other flag
// is an error, not silently dropped, and so is a -fig override out of
// range or a flag only -emit or -fig reads set beside a plan.
func TestEmitAndStatsRefuseDroppedFlags(t *testing.T) {
	for _, tc := range []struct {
		class string
		args  []string
		want  string
	}{
		{"planning", []string{"-emit", "-", "-algo", "octopus-g", "-delta", "5", "-ports", "2"}, "-emit would ignore -algo -delta -ports"},
		{"input", []string{"-emit", "-", "-load", "l.json"}, "-emit would ignore -load"},
		{"replay and faults", []string{"-emit", "-", "-replay", "s.json", "-faults", "f.json"}, "-emit would ignore -faults -replay"},
		{"output", []string{"-emit", "-", "-v", "-metrics-out", "m.txt"}, "-emit would ignore -metrics-out -v"},
		{"stats with generation", []string{"-stats", "l.json", "-n", "8"}, "-stats would ignore -n"},
		{"stats with emit", []string{"-stats", "l.json", "-emit", "-"}, "-stats would ignore -emit"},
		{"format without emit", []string{"-format", "bin"}, "-format needs -emit"},
		{"emit with fig", []string{"-emit", "-", "-fig", "4a"}, "-emit would ignore -fig"},
		{"fig with planning", []string{"-fig", "4a", "-algo", "octopus-g", "-ports", "2"}, "-fig would ignore -algo -ports"},
		{"fig with generation and sinks", []string{"-fig", "all", "-pods", "2", "-metrics-out", "m.txt", "-v"}, "-fig would ignore -metrics-out -pods -v"},
		{"scale without fig", []string{"-scale", "full"}, "-scale needs -fig"},
		{"sweep without fig", []string{"-n", "8", "-node-sweep", "8,16"}, "-node-sweep needs -fig"},
		{"matcher without fig", []string{"-matcher", "greedy"}, "-matcher needs -fig"},
		{"fig n below 1", []string{"-fig", "4a", "-n", "0"}, "-fig: -n 0 must be at least 1"},
		{"fig window below 1", []string{"-fig", "4a", "-window", "-5"}, "-fig: -window -5 must be at least 1"},
		{"fig instances below 1", []string{"-fig", "4a", "-instances", "0"}, "-fig: -instances 0 must be at least 1"},
		{"fig workers below 1", []string{"-fig", "4a", "-workers", "0"}, "-fig: -workers 0 must be at least 1"},
		{"fig negative delta", []string{"-fig", "4a", "-delta", "-1"}, "-fig: -delta -1 must be at least 0"},
		{"fig unknown matcher", []string{"-fig", "4a", "-matcher", "fast"}, `unknown matcher "fast" (want exact or greedy)`},
		{"fig bad sweep", []string{"-fig", "4a", "-node-sweep", "1e3"}, `bad sweep value "1e3" (want a positive integer)`},
		{"fig unknown scale", []string{"-fig", "4a", "-scale", "huge"}, `unknown scale "huge" (want quick or full)`},
		// The schedule is the plan, and it carries its own Δ.
		{"replay with algo", []string{"-replay", "s.json", "-algo", "octopus-e:eps64=64"}, "-replay would ignore -algo"},
		{"replay with delta", []string{"-replay", "s.json", "-delta", "5"}, "-replay would ignore -delta"},
		{"replay with v", []string{"-replay", "s.json", "-v"}, "-replay would ignore -v"},
		{"replay with gantt", []string{"-replay", "s.json", "-gantt"}, "-replay would ignore -gantt"},
		{"replay with save-schedule", []string{"-replay", "s.json", "-save-schedule", "t.json"}, "-replay would ignore -save-schedule"},
		{"replay with max-epochs", []string{"-replay", "s.json", "-faults", "f.json", "-max-epochs", "3"}, "-replay would ignore -max-epochs"},
		{"replay with showdown", []string{"-replay", "s.json", "-faults", "f.json", "-redundancy", "-redundancy-out", "-"}, "-replay would ignore -redundancy -redundancy-out"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: mhsim %v: err = %v, want %q", tc.class, tc.args, err, tc.want)
		}
	}
}

// TestStatsAcrossEncodings: -stats reads the same load alike from each of
// the three encodings -emit writes.
func TestStatsAcrossEncodings(t *testing.T) {
	const want = "flows:   128\n" +
		"packets: 2400\n" +
		"nodes:   >= 8\n" +
		"hop mix (packets): 1-hop=818 2-hop=817 3-hop=765 \n" +
		"flow size: min=7 p50=8 p90=53 p99=53 max=53\n"
	for _, format := range []string{"json", "jsonl", "bin"} {
		path := filepath.Join(t.TempDir(), "load."+format)
		if err := run(append(goldenArgs, "-emit", path, "-format", format), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-stats", path}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Errorf("%s: -stats printed\n%s\nwant\n%s", format, out.String(), want)
		}
	}
}

// TestSkewOutOfRangeRejected: c_S above the per-port total would leave
// c_L negative and write flows of negative size; it is refused before any
// flow is written, whether mhsim emits or plans.
func TestSkewOutOfRangeRejected(t *testing.T) {
	for _, extra := range [][]string{{"-emit", "-"}, {"-algo", "octopus-g"}} {
		var out bytes.Buffer
		err := run(append([]string{"-n", "8", "-window", "300", "-skew", "150"}, extra...), &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-skew 150 is not a percentage") {
			t.Errorf("%v: err = %v, want the -skew range error", extra, err)
		}
		if out.Len() > 0 {
			t.Errorf("%v: wrote %d bytes before refusing", extra, out.Len())
		}
	}
}
