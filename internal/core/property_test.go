package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"octopus/internal/graph"
	"octopus/internal/matching"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// randomSmallLoad builds a small random multi-route load over Complete(n).
func randomSmallLoad(seed int64) (*graph.Digraph, *traffic.Load) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(6)
	g := graph.Complete(n)
	load := &traffic.Load{}
	for f := 0; f < 1+rng.Intn(8); f++ {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		var routes []traffic.Route
		for r := 0; r < 1+rng.Intn(3); r++ {
			hops := 1 + rng.Intn(3)
			route, ok := traffic.RandomRoute(g, src, dst, hops, rng)
			if !ok {
				continue
			}
			dup := false
			for _, prev := range routes {
				if prev.Equal(route) {
					dup = true
				}
			}
			if !dup {
				routes = append(routes, route)
			}
		}
		if len(routes) == 0 {
			continue
		}
		load.Flows = append(load.Flows, traffic.Flow{
			ID: f + 1, Size: 1 + rng.Intn(30), Src: src, Dst: dst, Routes: routes,
		})
	}
	return g, load
}

// Property: every Octopus variant conserves packets, respects the window,
// and produces a valid schedule; Octopus+ plans additionally verify.
func TestSchedulerInvariantsProperty(t *testing.T) {
	f := func(seed int64, variant uint8) bool {
		g, load := randomSmallLoad(seed)
		if len(load.Flows) == 0 {
			return true
		}
		opt := Options{Window: 100 + int(seed%200+200)%200, Delta: 5, KeepTrace: true}
		switch variant % 5 {
		case 1:
			opt.Matcher = MatcherGreedy
		case 2:
			opt.AlphaSearch = AlphaBinary
		case 3:
			opt.MultiRoute = true
		case 4:
			opt.Epsilon64 = int(variant % 16)
		}
		s, err := New(g, load, opt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		res, err := s.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Delivered+res.Pending != res.TotalPackets {
			return false
		}
		if res.Schedule.Cost() > opt.Window {
			return false
		}
		if err := res.Schedule.Validate(g, opt.Window, 1); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := res.VerifyPlan(); err != nil {
			t.Logf("seed %d: verify: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: plan bookkeeping and simulator replay agree exactly for every
// single-route variant.
func TestAgreementProperty(t *testing.T) {
	f := func(seed int64, greedy bool, eps uint8) bool {
		g, load := randomSmallLoad(seed)
		if len(load.Flows) == 0 {
			return true
		}
		// Force single-route loads.
		for i := range load.Flows {
			load.Flows[i].Routes = load.Flows[i].Routes[:1]
		}
		opt := Options{Window: 150, Delta: 4, Epsilon64: int(eps % 8)}
		if greedy {
			opt.Matcher = MatcherGreedy
		}
		s, err := New(g, load, opt)
		if err != nil {
			return false
		}
		res, err := s.Run()
		if err != nil {
			return false
		}
		sim, err := simulate.Run(g, load, res.Schedule, simulate.Options{Epsilon64: opt.Epsilon64})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return sim.Delivered == res.Delivered && sim.Psi == res.Psi && sim.Hops == res.Hops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: over the shared verify.RandomInstance distribution, every
// variant's schedule passes the independent validator — with the plan's
// claimed metrics checked exactly for the single-route-planning variants.
func TestValidatedClaimsProperty(t *testing.T) {
	f := func(seed int64, variant uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			return true
		}
		opt := Options{Window: inst.Window, Delta: inst.Delta}
		switch variant % 5 {
		case 1:
			opt.Matcher = MatcherGreedy
		case 2:
			opt.AlphaSearch = AlphaBinary
		case 3:
			opt.Epsilon64 = int(variant % 16)
		case 4:
			opt.MultiHop = true
		}
		s, err := New(inst.G, inst.Load, opt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		res, err := s.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		_, err = verify.Schedule(inst.G, inst.Load, res.Schedule, verify.Options{
			Window:    inst.Window,
			Epsilon64: opt.Epsilon64,
			Claim:     &verify.Claim{Delivered: res.Delivered, Hops: res.Hops, Psi: res.Psi},
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the scheduler is deterministic, including under parallel α
// evaluation, in every mode: each reads its G' off one g-table block that
// several workers share. Its work is too: the matching counters and the
// pruned α's and exact solves read the same at Parallelism 1 and 4.
func TestParallelDeterminismProperty(t *testing.T) {
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"exact", Options{}},
		{"binary", Options{AlphaSearch: AlphaBinary}},
		{"ports2", Options{Ports: 2}},
		{"multihop", Options{MultiHop: true}},
		{"greedy", Options{Matcher: MatcherGreedy}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var pruned int64
			f := func(seed int64) bool {
				g, load := randomSmallLoad(seed)
				if len(load.Flows) == 0 {
					return true
				}
				// The work counters: the arenas' stats but their grows and
				// reuses (a pool of arenas grows once per worker), and the α's
				// and exact solves pruned.
				type work struct {
					st               matching.Stats
					alphaPr, exactPr int64
				}
				run := func(par int) (*Result, work) {
					opt := mode.opt
					opt.Window, opt.Delta, opt.Parallelism = 200, 6, par
					s, err := New(g, load, opt)
					if err != nil {
						return nil, work{}
					}
					res, err := s.Run()
					if err != nil {
						return nil, work{}
					}
					w := work{alphaPr: s.prunedAlpha, exactPr: s.prunedExact}
					for _, sc := range s.scratch {
						sc.arena.Stats.AddTo(&w.st)
					}
					w.st.Grows, w.st.Reuses = 0, 0
					return res, w
				}
				a, wa := run(1)
				b, wb := run(4)
				if a == nil || b == nil {
					return false
				}
				if wa != wb {
					t.Logf("seed %d: work at Parallelism 1 %+v, at 4 %+v", seed, wa, wb)
					return false
				}
				pruned += wa.alphaPr
				return a.Psi == b.Psi && a.Delivered == b.Delivered && reflect.DeepEqual(a.Schedule.Configs, b.Schedule.Configs)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
			if bip := mode.opt.AlphaSearch == AlphaFull && mode.opt.Ports == 0 && !mode.opt.MultiHop; bip != (pruned > 0) {
				t.Errorf("%d α's pruned over the runs", pruned)
			}
		})
	}
}

// Property: link queues stay sorted by (benefit weight desc, flow ID asc).
func TestQueueOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, load := randomSmallLoad(seed)
		if len(load.Flows) == 0 {
			return true
		}
		tr := newRemaining(g, load, 3, true, true, false)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 10; k++ {
			var links []graph.Edge
			i, j := rng.Intn(g.N()), rng.Intn(g.N())
			if i != j {
				links = append(links, graph.Edge{From: i, To: j})
			}
			tr.apply(links, 1+rng.Intn(10))
		}
		for _, ls := range tr.activeStates() {
			for i := 1; i < len(ls.entries); i++ {
				a, b := tr.entries[ls.entries[i-1]], tr.entries[ls.entries[i]]
				if a.bw < b.bw {
					return false
				}
				if a.bw == b.bw && tr.key(tr.subflows[a.sf]).flowID > tr.key(tr.subflows[b.sf]).flowID {
					return false
				}
			}
		}
		return tr.sanity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
