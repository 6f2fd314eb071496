package octopus

import (
	"math/rand"
	"testing"
)

// The façade tests exercise the public API end to end; detailed behavior
// is covered by the internal packages' suites.

func TestPublicAPIQuickstart(t *testing.T) {
	g := Complete(12)
	rng := rand.New(rand.NewSource(1))
	load, err := Synthetic(g, DefaultSyntheticParams(12, 400), rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(g, load, Options{Window: 400, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Measure(g, load, res.Schedule, SimOptions{Window: 400})
	if err != nil {
		t.Fatal(err)
	}
	if meas.Delivered != res.Delivered {
		t.Fatalf("plan %d vs measured %d", res.Delivered, meas.Delivered)
	}
	if meas.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPublicAPIBaselinesOrdering(t *testing.T) {
	g := Complete(12)
	rng := rand.New(rand.NewSource(2))
	load, err := Synthetic(g, DefaultSyntheticParams(12, 400), rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(g, load, Options{Window: 400, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Measure(g, load, res.Schedule, SimOptions{Window: 400})
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec string) *AlgoOutcome {
		t.Helper()
		out, err := RunAlgorithm(spec, g, load, AlgoParams{Window: 400, Delta: 10})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ecl, rot := run("eclipse-based"), run("rotornet")
	if !(meas.Delivered > ecl.Delivered && ecl.Delivered > rot.Delivered) {
		t.Fatalf("ordering violated: octopus %d, eclipse-based %d, rotornet %d",
			meas.Delivered, ecl.Delivered, rot.Delivered)
	}
	ub := run("ub")
	if float64(ub.Delivered) < 0.9*float64(meas.Delivered) {
		t.Fatalf("UB %d far below Octopus %d", ub.Delivered, meas.Delivered)
	}
}

func TestPublicAPIStepwise(t *testing.T) {
	g := Complete(10)
	rng := rand.New(rand.NewSource(3))
	load, err := Synthetic(g, DefaultSyntheticParams(10, 300), rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(g, load, Options{Window: 300, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		_, ok, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		steps++
	}
	if steps == 0 || !s.Done() {
		t.Fatalf("steps=%d done=%v", steps, s.Done())
	}
}

func TestPublicAPIMakespan(t *testing.T) {
	g := Complete(8)
	rng := rand.New(rand.NewSource(4))
	load, err := Synthetic(g, DefaultSyntheticParams(8, 200), rng)
	if err != nil {
		t.Fatal(err)
	}
	w, res, err := Makespan(g, load, Options{Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending != 0 || res.Schedule.Cost() > w {
		t.Fatalf("makespan w=%d pending=%d", w, res.Pending)
	}
}

func TestPublicAPITraceLike(t *testing.T) {
	g := Complete(16)
	for _, kind := range []TraceKind{FBHadoop, FBWeb, FBDatabase, MSHeatmap} {
		rng := rand.New(rand.NewSource(5))
		load, err := TraceLike(g, kind, 300, rng)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if load.TotalPackets() == 0 {
			t.Fatalf("%v: empty load", kind)
		}
	}
}

func TestPublicAPIOnline(t *testing.T) {
	g := Complete(6)
	arrivals := []Arrival{
		{Flow: Flow{ID: 1, Size: 20, Src: 0, Dst: 1, Routes: []Route{{0, 1}}}, At: 0},
		{Flow: Flow{ID: 2, Size: 20, Src: 1, Dst: 2, Routes: []Route{{1, 2}}}, At: 120},
	}
	res, err := ScheduleOnline(g, arrivals, PipelineConfig{Core: Options{Window: 100, Delta: 10}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 40 {
		t.Fatalf("delivered %d, want 40", res.Delivered)
	}
	if len(res.Completion) != 2 {
		t.Fatalf("completions = %v", res.Completion)
	}
}

func TestPublicAPIRollingWindows(t *testing.T) {
	g := Complete(8)
	rng := rand.New(rand.NewSource(9))
	load, err := Synthetic(g, DefaultSyntheticParams(8, 600), rng)
	if err != nil {
		t.Fatal(err)
	}
	burst := make([]Arrival, len(load.Flows))
	for i, f := range load.Flows {
		burst[i] = Arrival{Flow: f}
	}
	res, err := ScheduleOnline(g, burst, PipelineConfig{Core: Options{Window: 200, Delta: 10}}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != load.TotalPackets() {
		t.Fatalf("rolling delivered %d of %d", res.Delivered, load.TotalPackets())
	}
}

func TestPublicAPIPartialFabric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := RandomPartial(16, 5, rng)
	load, err := Synthetic(g, DefaultSyntheticParams(16, 300), rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(g, load, Options{Window: 300, Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(g, 300, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIAlgorithmRegistry(t *testing.T) {
	names := AlgorithmNames()
	algos := Algorithms()
	if len(names) == 0 || len(names) != len(algos) {
		t.Fatalf("%d names, %d algorithms", len(names), len(algos))
	}
	for i, a := range algos {
		if a.Name() != names[i] {
			t.Fatalf("Algorithms()[%d] = %q, AlgorithmNames()[%d] = %q", i, a.Name(), i, names[i])
		}
	}
	if _, ok := LookupAlgorithm("octopus"); !ok {
		t.Fatal("octopus not registered")
	}
	if _, ok := LookupAlgorithm("bogus"); ok {
		t.Fatal("LookupAlgorithm accepted an unknown name")
	}

	g := Complete(8)
	rng := rand.New(rand.NewSource(3))
	load, err := Synthetic(g, DefaultSyntheticParams(8, 200), rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunAlgorithm("octopus-e:eps64=8", g, load, AlgoParams{Window: 200, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Algo != "octopus-e" || out.Schedule == nil || out.Delivered <= 0 {
		t.Fatalf("outcome %+v", out)
	}
	if _, err := out.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAlgorithm("octopus:color=red", g, load, AlgoParams{Window: 200}); err == nil {
		t.Fatal("bad spec accepted")
	}
}
