package verify_test

import (
	"math/rand"
	"strings"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// example1 is the paper's Figure 1 instance.
func example1() (*graph.Digraph, *traffic.Load) {
	const a, b, c, d = 0, 1, 2, 3
	g := graph.New(4)
	g.AddEdge(d, a)
	g.AddEdge(a, b)
	g.AddEdge(c, b)
	g.AddEdge(b, a)
	g.AddEdge(b, c)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 100, Src: a, Dst: c, Routes: []traffic.Route{{a, b, c}}},
		{ID: 2, Size: 50, Src: c, Dst: a, Routes: []traffic.Route{{c, b, a}}},
		{ID: 3, Size: 50, Src: d, Dst: b, Routes: []traffic.Route{{d, a, b}}},
	}}
	return g, load
}

func TestScheduleValidAndReplayed(t *testing.T) {
	g, load := example1()
	// Hand-built optimal-style schedule: serve (a,b)+(c,b)+... then the
	// second hops.
	sch := &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}, {From: 3, To: 0}}, Alpha: 50},
		{Links: []graph.Edge{{From: 1, To: 2}, {From: 2, To: 1}}, Alpha: 50},
		{Links: []graph.Edge{{From: 1, To: 0}, {From: 0, To: 1}}, Alpha: 50},
		{Links: []graph.Edge{{From: 1, To: 2}}, Alpha: 50},
	}}
	rep, err := verify.Schedule(g, load, sch, verify.Options{Window: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check every replayed number against the packet-level simulator.
	sim, err := simulate.Run(g, load, sch, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != sim.Delivered || rep.Hops != sim.Hops || rep.Psi != sim.Psi {
		t.Fatalf("replay (%d, %d, %d) != simulator (%d, %d, %d)",
			rep.Delivered, rep.Hops, rep.Psi, sim.Delivered, sim.Hops, sim.Psi)
	}
	if rep.SlotsUsed != sim.SlotsUsed || rep.Configs != sim.Configs {
		t.Fatalf("slots/configs (%d, %d) != simulator (%d, %d)",
			rep.SlotsUsed, rep.Configs, sim.SlotsUsed, sim.Configs)
	}
}

func TestScheduleRejectsBadConfigs(t *testing.T) {
	g, load := example1()
	cases := []struct {
		name string
		sch  *schedule.Schedule
		opt  verify.Options
		want string
	}{
		{
			name: "not a matching",
			sch: &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
				{Links: []graph.Edge{{From: 1, To: 0}, {From: 1, To: 2}}, Alpha: 5},
			}},
			want: "output ports",
		},
		{
			name: "in-port collision",
			sch: &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
				{Links: []graph.Edge{{From: 0, To: 1}, {From: 2, To: 1}}, Alpha: 5},
			}},
			want: "input ports",
		},
		{
			name: "absent link",
			sch: &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
				{Links: []graph.Edge{{From: 0, To: 3}}, Alpha: 5},
			}},
			want: "absent link",
		},
		{
			name: "duplicate link",
			sch: &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
				{Links: []graph.Edge{{From: 0, To: 1}, {From: 0, To: 1}}, Alpha: 5},
			}},
			want: "twice",
		},
		{
			name: "non-positive alpha",
			sch: &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
				{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 0},
			}},
			want: "non-positive duration",
		},
		{
			name: "over window",
			sch: &schedule.Schedule{Delta: 5, Configs: []schedule.Configuration{
				{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 10},
			}},
			opt:  verify.Options{Window: 12},
			want: "exceeds window",
		},
		{
			name: "negative delta",
			sch: &schedule.Schedule{Delta: -1, Configs: []schedule.Configuration{
				{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 10},
			}},
			want: "negative reconfiguration delay",
		},
	}
	for _, tc := range cases {
		_, err := verify.Schedule(g, load, tc.sch, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The in-port collision is legal in the 2-port model.
	twoPort := &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}, {From: 2, To: 1}}, Alpha: 5},
	}}
	if _, err := verify.Schedule(g, load, twoPort, verify.Options{Ports: 2}); err != nil {
		t.Errorf("2-port config rejected: %v", err)
	}
}

func TestScheduleRejectsBadLoad(t *testing.T) {
	g, _ := example1()
	sch := &schedule.Schedule{Delta: 1}
	cases := []struct {
		name string
		load *traffic.Load
		want string
	}{
		{
			name: "duplicate IDs",
			load: &traffic.Load{Flows: []traffic.Flow{
				{ID: 1, Size: 1, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
				{ID: 1, Size: 1, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
			}},
			want: "duplicate flow ID",
		},
		{
			name: "non-positive size",
			load: &traffic.Load{Flows: []traffic.Flow{
				{ID: 1, Size: 0, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
			}},
			want: "non-positive size",
		},
		{
			name: "off-fabric route",
			load: &traffic.Load{Flows: []traffic.Flow{
				{ID: 1, Size: 1, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 3}}},
			}},
			want: "not a fabric link",
		},
		{
			name: "route endpoints mismatch",
			load: &traffic.Load{Flows: []traffic.Flow{
				{ID: 1, Size: 1, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1}}},
			}},
			want: "does not connect",
		},
		{
			name: "repeated node",
			load: &traffic.Load{Flows: []traffic.Flow{
				{ID: 1, Size: 1, Src: 0, Dst: 0, Routes: []traffic.Route{{0, 1, 0}}},
			}},
			want: "repeats node",
		},
	}
	for _, tc := range cases {
		_, err := verify.Schedule(g, tc.load, sch, verify.Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestScheduleClaimChecking(t *testing.T) {
	g, load := example1()
	sch := &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
		{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: 30},
	}}
	// 30 first-hop crossings of flow 1: ψ = 30·w(2), nothing delivered.
	good := &verify.Claim{Delivered: 0, Hops: 30, Psi: 30 * traffic.Weight(2)}
	if _, err := verify.Schedule(g, load, sch, verify.Options{Claim: good}); err != nil {
		t.Fatalf("correct claim rejected: %v", err)
	}
	inflated := &verify.Claim{Delivered: 5, Hops: 30, Psi: 30 * traffic.Weight(2)}
	if _, err := verify.Schedule(g, load, sch, verify.Options{Claim: inflated}); err == nil {
		t.Fatal("inflated claim accepted")
	}
}

// Replay must agree with the packet-level simulator on random scenarios in
// every mode combination — two independent implementations of the same
// semantics.
func TestReplayMatchesSimulatorRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		inst := verify.RandomInstance(rng).SingleRoute()
		if len(inst.Load.Flows) == 0 {
			continue
		}
		sch := randomFeasibleSchedule(inst.G, inst.Window, inst.Delta, rng)
		for _, multihop := range []bool{false, true} {
			for _, eps := range []int{0, 8} {
				opt := verify.Options{Window: inst.Window, MultiHop: multihop, Epsilon64: eps}
				rep, err := verify.Schedule(inst.G, inst.Load, sch, opt)
				if err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				sim, err := simulate.Run(inst.G, inst.Load, sch, simulate.Options{
					Window: inst.Window, MultiHop: multihop, Epsilon64: eps,
				})
				if err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				if rep.Delivered != sim.Delivered || rep.Hops != sim.Hops || rep.Psi != sim.Psi {
					t.Fatalf("instance %d (multihop=%v eps=%d): replay (%d, %d, %d) != simulator (%d, %d, %d)",
						i, multihop, eps, rep.Delivered, rep.Hops, rep.Psi, sim.Delivered, sim.Hops, sim.Psi)
				}
			}
		}
	}
}

// randomFeasibleSchedule builds a random schedule of valid matchings of g
// fitting the window.
func randomFeasibleSchedule(g *graph.Digraph, window, delta int, rng *rand.Rand) *schedule.Schedule {
	sch := &schedule.Schedule{Delta: delta}
	used := 0
	for used+delta < window && rng.Intn(6) != 0 {
		var links []graph.Edge
		usedF := map[int]bool{}
		usedT := map[int]bool{}
		for tries := 0; tries < g.N(); tries++ {
			i, j := rng.Intn(g.N()), rng.Intn(g.N())
			if i != j && !usedF[i] && !usedT[j] && g.HasEdge(i, j) {
				links = append(links, graph.Edge{From: i, To: j})
				usedF[i] = true
				usedT[j] = true
			}
		}
		if len(links) == 0 {
			continue
		}
		alpha := 1 + rng.Intn(window-used-delta)
		sch.Configs = append(sch.Configs, schedule.Configuration{Links: links, Alpha: alpha})
		used += alpha + delta
	}
	return sch
}
