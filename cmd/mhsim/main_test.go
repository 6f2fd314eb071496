package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"octopus/internal/algo"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// sameInstance runs mhsim with args twice — generating the load in place,
// and reading sc's load from a file — and requires identical output: the
// flags build exactly the load sc describes. It returns sc's load.
func sameInstance(t *testing.T, sc traffic.Scenario, args ...string) *traffic.Load {
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
	path := filepath.Join(t.TempDir(), "load.json")
	if err := load.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	args = append(args, "-seed", "1", "-delta", "10", "-algo", "octopus-g")
	var inPlace, fromFile bytes.Buffer
	if err := run(args, &inPlace, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-load", path), &fromFile, io.Discard); err != nil {
		t.Fatal(err)
	}
	if inPlace.String() != fromFile.String() {
		t.Errorf("%v: in place\n%s\nfrom the file of %+v\n%s", args, inPlace.String(), sc, fromFile.String())
	}
	return load
}

// TestMakeLoadSynthetic: the synthetic and pod loads mhsim generates are
// the scenario's, at the paper's n-scaled flow counts.
func TestMakeLoadSynthetic(t *testing.T) {
	sameInstance(t, traffic.Scenario{N: 24, Window: 1000}, "-n", "24", "-window", "1000")
	sameInstance(t, traffic.Scenario{N: 24, Window: 96, Pods: 4, InterPod: traffic.DefaultInterPod}, "-n", "24", "-window", "96", "-pods", "4")
}

// TestMakeLoadTraces: every trace-like load, and -routes/-fixed-hops with
// a trace (which mhsim once dropped), reach the generator.
func TestMakeLoadTraces(t *testing.T) {
	for _, tr := range traffic.TraceNames {
		load := sameInstance(t, traffic.Scenario{N: 8, Window: 100, Trace: tr}, "-n", "8", "-window", "100", "-trace", tr)
		if load.TotalPackets() == 0 {
			t.Fatalf("%s: empty", tr)
		}
	}
	sameInstance(t, traffic.Scenario{N: 12, Window: 600, Trace: "ms", FixedHops: 2},
		"-n", "12", "-window", "600", "-trace", "ms", "-fixed-hops", "2")
	load := sameInstance(t, traffic.Scenario{N: 12, Window: 600, Trace: "fb-hadoop", Routes: 3, FixedHops: 2},
		"-n", "12", "-window", "600", "-trace", "fb-hadoop", "-routes", "3", "-fixed-hops", "2")
	three := 0
	for _, f := range load.Flows {
		for _, r := range f.Routes {
			if r.Hops() != 2 {
				t.Fatalf("flow %d: route %v is not 2 hops", f.ID, r)
			}
		}
		if len(f.Routes) == 3 {
			three++
		}
	}
	// Routes are distinct, so a flow may draw fewer than 3.
	if 2*three < len(load.Flows) {
		t.Errorf("%d of %d flows have 3 routes", three, len(load.Flows))
	}
	if err := run([]string{"-n", "8", "-trace", "bogus"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bogus trace accepted")
	}
}

func TestMakeLoadFromFile(t *testing.T) {
	g := graph.Complete(4)
	path := filepath.Join(t.TempDir(), "load.json")
	src := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 5, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	load, err := readLoad(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if load.TotalPackets() != 5 {
		t.Fatalf("got %d packets", load.TotalPackets())
	}
	if _, err := readLoad(filepath.Join(t.TempDir(), "nope.json"), g); err == nil {
		t.Fatal("missing file accepted")
	}
	// A load referencing nodes outside the fabric is rejected.
	big := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 5, Src: 0, Dst: 9, Routes: []traffic.Route{{0, 9}}},
	}}
	path2 := filepath.Join(t.TempDir(), "big.json")
	if err := big.SaveFile(path2); err != nil {
		t.Fatal(err)
	}
	if _, err := readLoad(path2, g); err == nil {
		t.Fatal("out-of-fabric load accepted")
	}
}

func TestUnknownAlgoRejected(t *testing.T) {
	for _, a := range []string{"", "Octopus", "octopus ", "bogus", "octopus:eps64", "maxweight", "solstice", "octopus:hold=1"} {
		err := run([]string{"-n", "4", "-algo", a}, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("%q accepted", a)
		}
	}
}

func TestScheduleFlagsRejectedForScheduleFreeAlgos(t *testing.T) {
	for _, fl := range []string{"-v", "-gantt"} {
		if err := run([]string{"-n", "4", "-algo", "ub", fl}, io.Discard, io.Discard); err == nil {
			t.Errorf("ub %s accepted", fl)
		}
	}
	if err := run([]string{"-n", "4", "-algo", "ub", "-save-schedule", filepath.Join(t.TempDir(), "s.json")}, io.Discard, io.Discard); err == nil {
		t.Error("ub -save-schedule accepted")
	}
}

func TestScheduleFlagsWorkForBaselines(t *testing.T) {
	// Pre-refactor mhsim silently ignored -gantt / -save-schedule / -v for
	// baseline algorithms; the registry Outcome carries the schedule, so
	// they now work uniformly for every schedule-producing algorithm.
	// eclipse-pp's plan is refused at save (TestSaveThenReplayMeasuresThePlan).
	for _, a := range []string{"eclipse-based", "rotornet", "eclipse-pp"} {
		path := filepath.Join(t.TempDir(), "sched.json")
		args := []string{"-n", "6", "-window", "60", "-delta", "4", "-seed", "2", "-algo", a, "-v", "-gantt"}
		if a != "eclipse-pp" {
			args = append(args, "-save-schedule", path)
		}
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !strings.Contains(out.String(), "config   0:") {
			t.Errorf("%s: -v printed no configuration sequence:\n%s", a, out.String())
		}
		if a == "eclipse-pp" {
			continue
		}
		sch, err := schedule.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: -save-schedule wrote nothing usable: %v", a, err)
		}
		if len(sch.Configs) == 0 {
			t.Errorf("%s: saved schedule is empty", a)
		}
	}
}

// TestSaveThenReplayMeasuresThePlan: a schedule saved by a plan and
// replayed with -replay under the same instance flags measures what the
// plan measured, or the plan is refused at save with the reason. The walk
// covers every offline entry at one and three candidate routes, a
// non-default ε, a two-port and a partial fabric; replay takes no planner
// flag.
func TestSaveThenReplayMeasuresThePlan(t *testing.T) {
	measured := func(args ...string) (string, error) {
		var out bytes.Buffer
		if err := run(args, &out, io.Discard); err != nil {
			return "", err
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "measured: ") {
				return line, nil
			}
		}
		return "", fmt.Errorf("no measured line in:\n%s", out.String())
	}
	type row struct{ spec, instance string }
	var rows []row
	for _, routes := range []string{"-routes 1", "-routes 3"} {
		for _, a := range algo.Registry() {
			if a.Kind() == algo.Offline {
				rows = append(rows, row{a.Name(), routes})
			}
		}
	}
	rows = append(rows, row{"octopus-e:eps64=64", "-routes 3"}, row{"octopus", "-ports 2"}, row{"rotornet", "-deg 4"})
	// Plans measured by their own bookkeeping, over routes a replay does
	// not serve or over links the fabric lacks cannot be reproduced.
	refused := map[row]string{
		{"octopus-plus", "-routes 1"}:   "plan bookkeeping",
		{"octopus-plus", "-routes 3"}:   "plan bookkeeping",
		{"eclipse-pp", "-routes 1"}:     "plan bookkeeping",
		{"eclipse-pp", "-routes 3"}:     "plan bookkeeping",
		{"octopus-random", "-routes 3"}: "route choices are not in the schedule file",
		{"rotornet", "-deg 4"}:          "does not fit the fabric a replay reads",
	}
	for _, r := range rows {
		instance := append([]string{"-n", "12", "-window", "300", "-seed", "3"}, strings.Fields(r.instance)...)
		path := filepath.Join(t.TempDir(), "s.json")
		plan, err := measured(slices.Concat(instance, []string{"-delta", "5", "-algo", r.spec, "-save-schedule", path})...)
		if why, ok := refused[r]; ok {
			if err == nil || !strings.Contains(err.Error(), "-save-schedule: "+r.spec) || !strings.Contains(err.Error(), why) {
				t.Errorf("%s %s: saved (error %v), want a refusal naming %q", r.spec, r.instance, err, why)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s %s: %v", r.spec, r.instance, err)
			continue
		}
		if got, err := measured(append(instance, "-replay", path)...); err != nil || got != plan {
			t.Errorf("%s %s: plan %q, replay %q (%v)", r.spec, r.instance, plan, got, err)
		}
	}
	// Chaining is the schedule's own rule: there is no flag to ask for it.
	if err := run([]string{"-multihop"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -multihop") {
		t.Errorf("-multihop: %v", err)
	}
}

func TestFaultsRejectedForNonCoreAlgos(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	tr := &fault.Trace{Events: []fault.Event{{At: 5, Kind: fault.LinkDown, From: 0, To: 1}}}
	if err := tr.SaveFile(tracePath); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-n", "4", "-algo", "rotornet", "-faults", tracePath}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "does not support -faults") {
		t.Fatalf("rotornet -faults: %v", err)
	}
	// Every core-family algorithm must be accepted by the same gate.
	for _, name := range algo.CoreNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list core algorithm %s: %v", name, err)
		}
	}
}

func TestListAlgosMatchesRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list-algos"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	reg := algo.Registry()
	if len(lines) != len(reg) {
		t.Fatalf("listed %d algorithms, registry has %d", len(lines), len(reg))
	}
	for i, a := range reg {
		want := a.Name() + "\t" + a.Kind().String() + "\t" + a.Describe()
		if lines[i] != want {
			t.Errorf("line %d = %q, want %q", i, lines[i], want)
		}
	}
}

// TestReadmeAlgoTableInSync keeps the README's generated algorithm table
// identical to the registry listing (the same check CI runs): each row
// between the algo-table markers must match -list-algos, line for line.
func TestReadmeAlgoTableInSync(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	const start, end = "<!-- algo-table-start -->", "<!-- algo-table-end -->"
	i, j := strings.Index(readme, start), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatal("README.md is missing the algo-table markers")
	}
	var rows []string
	for _, line := range strings.Split(readme[i+len(start):j], "\n") {
		if strings.HasPrefix(line, "| `") {
			rows = append(rows, line)
		}
	}
	reg := algo.Registry()
	if len(rows) != len(reg) {
		t.Fatalf("README table has %d rows, registry has %d algorithms", len(rows), len(reg))
	}
	for k, a := range reg {
		want := fmt.Sprintf("| `%s` | %s | %s |", a.Name(), a.Kind(), a.Describe())
		if rows[k] != want {
			t.Errorf("README row %d:\n  have %s\n  want %s", k, rows[k], want)
		}
	}
}

func TestLoadScheduleValidatesAgainstFabric(t *testing.T) {
	g := graph.Complete(4)
	dir := t.TempDir()
	good := &schedule.Schedule{Delta: 2, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 3},
	}}
	path := filepath.Join(dir, "sched.json")
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSchedule(path, g, 1); err != nil {
		t.Fatal(err)
	}
	// A schedule activating a link outside the fabric is rejected with a
	// clear error, not a panic later in the replay.
	if err := os.WriteFile(path, []byte(`{"delta":2,"configs":[{"alpha":3,"from":[0],"to":[9]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSchedule(path, g, 1); err == nil {
		t.Fatal("out-of-fabric schedule accepted")
	}
	// Non-positive alpha is rejected at decode time.
	if err := os.WriteFile(path, []byte(`{"delta":2,"configs":[{"alpha":0,"from":[0],"to":[1]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSchedule(path, g, 1); err == nil {
		t.Fatal("zero-alpha schedule accepted")
	}
	if _, err := loadSchedule(filepath.Join(dir, "missing.json"), g, 1); err == nil {
		t.Fatal("missing schedule accepted")
	}
}

func TestLoadFaultsValidatesAgainstFabric(t *testing.T) {
	g := graph.Complete(4)
	dir := t.TempDir()
	// Empty path: no trace, no error.
	if tr, err := loadFaults("", g); tr != nil || err != nil {
		t.Fatalf("empty path: %v, %v", tr, err)
	}
	good := &fault.Trace{Events: []fault.Event{{At: 5, Kind: fault.LinkDown, From: 0, To: 1}}}
	path := filepath.Join(dir, "trace.json")
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	tr, err := loadFaults(path, g)
	if err != nil || len(tr.Events) != 1 {
		t.Fatalf("good trace: %v, %v", tr, err)
	}
	// Out-of-fabric events are rejected.
	if err := os.WriteFile(path, []byte(`{"events":[{"at":0,"kind":"node-down","node":9}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFaults(path, g); err == nil {
		t.Fatal("out-of-fabric trace accepted")
	}
	// Malformed JSON is rejected.
	if err := os.WriteFile(path, []byte(`{"events":[{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFaults(path, g); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

// TestMakeLoadRejectsOffFabricRoute pins the load-time route-vs-fabric
// validation: a JSON load whose route uses a link absent from the selected
// (sparse) fabric must fail at load time with an error naming the flow and
// the offending hop — not deep inside planning.
func TestMakeLoadRejectsOffFabricRoute(t *testing.T) {
	// ChordRing(6, 2) has edges i->i+1 and i->i+2 only: 0->3 is not a link,
	// though both endpoints are valid nodes.
	g := graph.ChordRing(6, 2)
	bad := &traffic.Load{Flows: []traffic.Flow{
		{ID: 7, Size: 3, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 3}}},
	}}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := bad.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	_, err := readLoad(path, g)
	if err == nil {
		t.Fatal("off-fabric route accepted")
	}
	for _, want := range []string{"flow 7", "not a fabric link", "does not fit the selected fabric"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestRedundancyFlagGating(t *testing.T) {
	err := run([]string{"-n", "4", "-redundancy"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "needs -faults") {
		t.Fatalf("-redundancy without -faults: %v", err)
	}
	err = run([]string{"-n", "4", "-redundancy-out", "x.json"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "needs -redundancy") {
		t.Fatalf("-redundancy-out without -redundancy: %v", err)
	}
	// The copy knobs are read by the fault pipeline alone.
	for _, spec := range []string{"octopus:red=2", "octopus-g:crit=0.5", "octopus:stretch=3"} {
		err = run([]string{"-n", "4", "-algo", spec}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "need -faults") {
			t.Errorf("%s without -faults: %v", spec, err)
		}
	}
}

// TestRedundancyShowdownEndToEnd drives the full -redundancy pipeline:
// four arms over a committed failure event, a human-readable table on
// stdout, and a machine-readable JSON artifact.
func TestRedundancyShowdownEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	tr := &fault.Trace{Events: []fault.Event{
		{At: 0, Kind: fault.LinkDown, From: 0, To: 3},
		{At: 120, Kind: fault.LinkUp, From: 0, To: 3},
	}}
	if err := tr.SaveFile(tracePath); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "showdown.json")
	var stdout bytes.Buffer
	err := run([]string{
		"-n", "6", "-window", "60", "-delta", "5", "-max-epochs", "4",
		"-algo", "octopus:red=2,crit=1",
		"-faults", tracePath, "-redundancy", "-redundancy-out", outPath,
	}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"showdown: k=2 crit=1.00", "none", "reactive", "proactive", "both", "psi overhead"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep showdownReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("showdown JSON: %v", err)
	}
	if len(rep.Arms) != 4 {
		t.Fatalf("%d arms, want 4", len(rep.Arms))
	}
	names := []string{"none", "reactive", "proactive", "both"}
	for i, a := range rep.Arms {
		if a.Arm != names[i] {
			t.Errorf("arm %d = %q, want %q", i, a.Arm, names[i])
		}
		if a.UniqueTotal != rep.Arms[0].UniqueTotal {
			t.Errorf("arm %s unique total %d diverges from %d", a.Arm, a.UniqueTotal, rep.Arms[0].UniqueTotal)
		}
		if a.UniqueFraction < 0 || a.UniqueFraction > 1 {
			t.Errorf("arm %s unique fraction %f out of range", a.Arm, a.UniqueFraction)
		}
	}
	if rep.PsiOverhead < 1 {
		t.Errorf("psi overhead %f below 1", rep.PsiOverhead)
	}
	// Layered protection never loses packets relative to nothing.
	if rep.Arms[3].UniqueDelivered < rep.Arms[0].UniqueDelivered {
		t.Errorf("both delivered %d below none %d", rep.Arms[3].UniqueDelivered, rep.Arms[0].UniqueDelivered)
	}
}

// TestFaultsWithRedundantSpec: the plain -faults path provisions proactive
// copies when the algorithm spec asks for them, and reports the
// deduplicated delivery alongside the raw epochs.
func TestFaultsWithRedundantSpec(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	tr := &fault.Trace{Events: []fault.Event{{At: 0, Kind: fault.LinkDown, From: 0, To: 3}}}
	if err := tr.SaveFile(tracePath); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := run([]string{
		"-n", "6", "-window", "60", "-delta", "5", "-max-epochs", "4",
		"-algo", "octopus:red=2,crit=0.5",
		"-faults", tracePath,
	}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"redundancy: k=2 crit=0.50", "unique delivered"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	// The same spec with crit unset runs without copies.
	stdout.Reset()
	err = run([]string{
		"-n", "6", "-window", "60", "-delta", "5", "-max-epochs", "4",
		"-algo", "octopus", "-faults", tracePath,
	}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout.String(), "unique delivered") {
		t.Errorf("plain octopus -faults printed redundancy accounting:\n%s", stdout.String())
	}
}
