package algo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
)

// settleGoroutines fails t unless the goroutine count falls back to base:
// a goroutine that has signalled its caller may still be on its way out.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive Run, %d before it", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// planThenReplay measures a's plan one step after the other: core.New, Run
// to the end, then simulate.Run over the schedule.
func planThenReplay(t *testing.T, a Algorithm, g *graph.Digraph, load *traffic.Load, p Params) *Outcome {
	t.Helper()
	runLoad, opt, err := a.(CorePlanner).CoreOptions(load, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(g, runLoad, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulate.Run(g, runLoad, res.Schedule, simulate.Options{
		Window: opt.Window, MultiHop: opt.MultiHop, Ports: opt.Ports, Epsilon64: opt.Epsilon64,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &Outcome{Schedule: res.Schedule}
	want.planned(res)
	want.measured(sim)
	return want
}

// checkOverlapped runs a once and holds its Outcome to planThenReplay's.
func checkOverlapped(t *testing.T, what string, a Algorithm, g *graph.Digraph, load *traffic.Load, params func() Params) *Outcome {
	t.Helper()
	base := runtime.NumGoroutine()
	got, err := a.Run(g, load, params())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	settleGoroutines(t, base, what)
	want := planThenReplay(t, a, g, load, params())
	if !got.Measured || !reflect.DeepEqual(got.Schedule, want.Schedule) || !reflect.DeepEqual(got.Plan, want.Plan) ||
		got.Delivered != want.Delivered || got.Total != want.Total || got.Hops != want.Hops || got.Psi != want.Psi ||
		got.ActiveLinkSlots != want.ActiveLinkSlots || got.ConfigsReplayed != want.ConfigsReplayed ||
		got.SlotsUsed != want.SlotsUsed || got.Reconfigs != want.Reconfigs {
		t.Fatalf("%s: overlapped run %+v, plan then replay %+v", what, got, want)
	}
	return got
}

// TestOverlappedRunEqualsPlanThenReplay: the registry's Run, which replays
// each configuration as the plan commits it, measures what planning to the
// end and then replaying the schedule measures, for every core entry that
// replays, on random single- and multi-route loads at ε 0 and 64, and on a
// plan of more configurations than the replay's buffer holds at GOMAXPROCS
// 1 and 2; and it leaves no goroutine behind.
func TestOverlappedRunEqualsPlanThenReplay(t *testing.T) {
	entries := []struct {
		name  string
		ports int
	}{{"octopus", 0}, {"octopus-g", 0}, {"octopus-b", 0}, {"octopus-e", 0}, {"chained", 0}, {"octopus-random", 0}, {"octopus", 2}}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		g := graph.Complete(n)
		sp := traffic.DefaultSyntheticParams(n, 150)
		sp.RouteChoices = 1 + 2*int(seed%2)
		load, err := traffic.Synthetic(g, sp, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			a, ok := Lookup(e.name)
			if !ok {
				t.Fatalf("%s is not registered", e.name)
			}
			for _, eps := range []int{0, 64} {
				checkOverlapped(t, fmt.Sprintf("seed %d %s ports %d eps %d", seed, e.name, e.ports, eps), a, g, load, func() Params {
					return Params{Window: 150, Delta: 1 + int(seed%4), Ports: e.ports, Epsilon64: eps, Rng: rand.New(rand.NewSource(seed))}
				})
			}
		}
	}

	// Single packets at Δ 0: one configuration a slot or so, past the buffer.
	g := graph.Complete(10)
	rng := rand.New(rand.NewSource(1))
	load := &traffic.Load{}
	for id := 1; id <= 3000; id++ {
		src := rng.Intn(10)
		dst := (src + 1 + rng.Intn(9)) % 10
		r, _ := traffic.RandomRoute(g, src, dst, 1+rng.Intn(2), rng)
		load.Flows = append(load.Flows, traffic.Flow{ID: id, Size: 1, Src: src, Dst: dst, Routes: []traffic.Route{r}})
	}
	a, _ := Lookup("octopus")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		out := checkOverlapped(t, fmt.Sprintf("GOMAXPROCS %d", procs), a, g, load, func() Params { return Params{Window: 2000} })
		if out.ConfigsReplayed <= replayBuffer {
			t.Fatalf("GOMAXPROCS %d: %d configurations, want more than the %d the replay buffers", procs, out.ConfigsReplayed, replayBuffer)
		}
	}
}

// TestOverlappedRunErrors: a plan that cannot start returns its own error,
// also when the replay fails too; a replay that fails under a plan that
// succeeds returns the replay's error. No path leaves a goroutine behind.
func TestOverlappedRunErrors(t *testing.T) {
	g := graph.Complete(4)
	flow := func(size int) *traffic.Load {
		return &traffic.Load{Flows: []traffic.Flow{{ID: 1, Size: size, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}}}}
	}
	a, _ := Lookup("octopus")
	base := runtime.NumGoroutine()

	if _, err := a.Run(g, flow(10), Params{Window: 5, Delta: 5}); !errors.Is(err, core.ErrWindowTooSmall) {
		t.Errorf("window not past Δ: err = %v, want %v", err, core.ErrWindowTooSmall)
	}
	settleGoroutines(t, base, "core.New error")

	// Both refuse a flow of 2^31 packets, each with its own text.
	if _, err := a.Run(g, flow(math.MaxInt32+1), Params{Window: 100, Delta: 5}); err == nil || !strings.HasPrefix(err.Error(), "core:") {
		t.Errorf("a flow of 2^31 packets: err = %v, want core.New's", err)
	}
	settleGoroutines(t, base, "core.New and replay errors")

	// The plan fits its window; the replay cannot count past slot 2^31-1.
	if _, err := a.Run(g, flow(10), Params{Window: math.MaxInt32 + 1000, Delta: math.MaxInt32 + 1}); err == nil || !strings.Contains(err.Error(), "past slot") {
		t.Errorf("a plan past slot 2^31: err = %v, want the replay's slot error", err)
	}
	settleGoroutines(t, base, "replay error")
}
