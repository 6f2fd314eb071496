package simulate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// randomScenario builds a random small fabric, load, and schedule.
func randomScenario(seed int64) (*graph.Digraph, *traffic.Load, *schedule.Schedule) {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(6)
	g := graph.Complete(n)
	load := &traffic.Load{}
	nflows := 1 + rng.Intn(6)
	for f := 0; f < nflows; f++ {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		hops := 1 + rng.Intn(2)
		route, ok := traffic.RandomRoute(g, src, dst, hops, rng)
		if !ok {
			continue
		}
		load.Flows = append(load.Flows, traffic.Flow{
			ID: f + 1, Size: 1 + rng.Intn(20), Src: src, Dst: dst,
			Routes: []traffic.Route{route},
		})
	}
	sch := &schedule.Schedule{Delta: rng.Intn(4)}
	nconfigs := rng.Intn(6)
	for c := 0; c < nconfigs; c++ {
		var links []graph.Edge
		usedF := map[int]bool{}
		usedT := map[int]bool{}
		for tries := 0; tries < n; tries++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j && !usedF[i] && !usedT[j] {
				links = append(links, graph.Edge{From: i, To: j})
				usedF[i] = true
				usedT[j] = true
			}
		}
		if len(links) == 0 {
			continue
		}
		sch.Configs = append(sch.Configs, schedule.Configuration{Links: links, Alpha: 1 + rng.Intn(15)})
	}
	return g, load, sch
}

// Property: basic conservation and metric sanity on random scenarios, in
// both bulk and multi-hop replay modes.
func TestSimulatorInvariantsProperty(t *testing.T) {
	f := func(seed int64, multihop bool) bool {
		g, load, sch := randomScenario(seed)
		if len(load.Flows) == 0 {
			return true
		}
		res, err := Run(g, load, sch, Options{MultiHop: multihop})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		total := load.TotalPackets()
		if res.TotalPackets != total {
			return false
		}
		if res.Delivered < 0 || res.Delivered > total {
			return false
		}
		if res.Hops < res.Delivered { // a delivered packet crossed >= 1 hop
			return false
		}
		if res.Psi < 0 || res.Psi > int64(total)*traffic.WeightScale {
			return false
		}
		if res.Utilization() < 0 || res.Utilization() > 1.000001 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// configGain replays configurations [0, k) of sch on a fresh state in the
// prefix mode, then configuration k in the last mode, with Run's slot
// accounting (no window, no faults), and returns the hops and ψ that
// configuration k moved.
func configGain(t *testing.T, g *graph.Digraph, load *traffic.Load, sch *schedule.Schedule, k int, prefixMulti, lastMulti bool) (int, int64) {
	t.Helper()
	st, err := newState(g, load, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slot, cur := 0, (*fault.Trace)(nil).Cursor()
	var hops0 int
	var psi0 int64
	for i, cfg := range sch.Configs[:k+1] {
		slot += sch.Delta
		hops0, psi0 = st.res.Hops, st.res.Psi
		if multi := (i < k && prefixMulti) || (i == k && lastMulti); multi {
			st.runMultiHop(cfg.Links, slot, cfg.Alpha, cur)
		} else {
			for _, e := range cfg.Links {
				st.serve(e, cfg.Alpha, slot, slot+cfg.Alpha)
			}
		}
		slot += cfg.Alpha
	}
	return st.res.Hops - hops0, st.res.Psi - psi0
}

// multiHopDominatesPerConfig reports whether, from every state a bulk or a
// multi-hop replay of a schedule prefix reaches, the next configuration
// moves at least as many hops and as much ψ in multi-hop mode as in bulk
// mode.
func multiHopDominatesPerConfig(t *testing.T, seed int64) bool {
	g, load, sch := randomScenario(seed)
	if len(load.Flows) == 0 {
		return true
	}
	for k := range sch.Configs {
		for _, prefixMulti := range []bool{false, true} {
			bh, bp := configGain(t, g, load, sch, k, prefixMulti, false)
			mh, mp := configGain(t, g, load, sch, k, prefixMulti, true)
			if mh < bh || mp < bp {
				t.Logf("seed %d config %d (multi-hop prefix %v): bulk %d hops ψ %d, multi-hop %d hops ψ %d",
					seed, k, prefixMulti, bh, bp, mh, mp)
				return false
			}
		}
	}
	return true
}

// Property: from the same state, one configuration never moves fewer hops
// or less ψ in multi-hop mode than in bulk mode. Every packet is available
// when a configuration starts, so in multi-hop mode a link with Q waiting
// packets serves one of them in each of its first min(α, Q) slots, which is
// all bulk mode serves, and the packet it serves in slot s weighs at least
// as much as the s-th heaviest of the Q (chained arrivals can only displace
// lighter ones; with ε = 0 queue priority is the ψ weight).
//
// The claim does not extend to a whole schedule, which is what this test
// asserted until PR 13: the two replays reach different states after the
// first configuration, and about one random scenario in 3000 ends with bulk
// ahead (see the counterexample test below). A one-off search of 200 000
// seeds (0 … 99 999, and 100 000 int64s drawn from math/rand seeded 2026)
// found no violation of the per-configuration claim and 65 of the
// whole-schedule one; on every one of them configGain summed over a schedule
// equalled Run's totals in both modes.
func TestMultiHopDominatesBulkProperty(t *testing.T) {
	f := func(seed int64) bool { return multiHopDominatesPerConfig(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// bulkWinsSeed is a scenario whose whole-schedule bulk replay moves more
// hops than its multi-hop replay: a packet that chains ahead in an early
// configuration takes a later link's slot from a heavier one (ROADMAP item F).
const bulkWinsSeed = -1043701294343279386

// TestMultiHopDominatesBulkCounterexample pins that scenario: the
// per-configuration property holds on it, the whole-schedule one does not.
func TestMultiHopDominatesBulkCounterexample(t *testing.T) {
	if !multiHopDominatesPerConfig(t, bulkWinsSeed) {
		t.Fatal("per-configuration dominance fails on the counterexample seed")
	}
	g, load, sch := randomScenario(bulkWinsSeed)
	bulk, err := Run(g, load, sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(g, load, sch, Options{MultiHop: true})
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Hops != 28 || multi.Hops != 27 {
		t.Fatalf("bulk %d hops, multi-hop %d hops; want 28 and 27", bulk.Hops, multi.Hops)
	}
}

// Property: growing the window never decreases delivery (prefix replay).
func TestWindowMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, load, sch := randomScenario(seed)
		if len(load.Flows) == 0 || len(sch.Configs) == 0 {
			return true
		}
		prev := -1
		for _, w := range []int{5, 10, 20, 40, 80, 0} {
			res, err := Run(g, load, sch, Options{Window: w})
			if err != nil {
				return false
			}
			if res.Delivered < prev {
				return false
			}
			prev = res.Delivered
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the independent validator replay in internal/verify agrees with
// the simulator on every metric, in every mode combination — two separate
// implementations of the replay semantics differentially tested.
func TestValidatorAgreesWithSimulatorProperty(t *testing.T) {
	f := func(seed int64, multihop bool, eps uint8) bool {
		g, load, sch := randomScenario(seed)
		if len(load.Flows) == 0 {
			return true
		}
		opts := Options{MultiHop: multihop, Epsilon64: int(eps % 32)}
		sim, err := Run(g, load, sch, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		_, err = verify.Schedule(g, load, sch, verify.Options{
			MultiHop:  opts.MultiHop,
			Epsilon64: opts.Epsilon64,
			Claim:     &verify.Claim{Delivered: sim.Delivered, Hops: sim.Hops, Psi: sim.Psi},
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: replay is deterministic.
func TestReplayDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, load, sch := randomScenario(seed)
		if len(load.Flows) == 0 {
			return true
		}
		a, err1 := Run(g, load, sch, Options{MultiHop: true, TrackBuffers: true})
		b, err2 := Run(g, load, sch, Options{MultiHop: true, TrackBuffers: true})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return a.Delivered == b.Delivered && a.Hops == b.Hops && a.Psi == b.Psi &&
			a.SlotsUsed == b.SlotsUsed && a.MaxNodeBuffer == b.MaxNodeBuffer &&
			a.MaxTotalBuffer == b.MaxTotalBuffer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
