package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// steadyLoad drives a pipeline the way a long-lived daemon is driven: every
// epoch a batch of fresh arrivals stamped at the boundary, a few of the
// previous epoch's flows cancelled, one PlanNext and one Commit. The
// offered load is well inside the fabric's capacity, so the backlog — and
// with it everything the engine may hold — is steady.
type steadyLoad struct {
	t      testing.TB
	p      *Pipeline
	g      *graph.Digraph
	rng    *rand.Rand
	nextID int
	cancel []int // last epoch's arrivals to cancel this epoch
}

const (
	steadyArrivals = 40 // arrivals per epoch
	steadyCancelIn = 50 // one arrival in this many is cancelled an epoch later
)

func newSteadyLoad(t testing.TB) *steadyLoad {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomPartial(128, 8, rng)
	p, err := New(g, Config{
		Core:     core.Options{Window: 24, Delta: 1, Matcher: core.MatcherGreedy},
		Repair:   true,
		Reactive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &steadyLoad{t: t, p: p, g: g, rng: rng}
}

// epoch runs one submit + PlanNext + Commit cycle and returns its stat.
func (l *steadyLoad) epoch() *FaultEpochStat {
	for _, id := range l.cancel {
		l.p.Cancel(id)
	}
	l.cancel = l.cancel[:0]
	for i := 0; i < steadyArrivals; i++ {
		src := l.rng.Intn(l.g.N())
		dst := (src + 1 + l.rng.Intn(l.g.N()-1)) % l.g.N()
		size := 1 + l.rng.Intn(4)
		if l.rng.Intn(10) == 0 {
			size = 20 + l.rng.Intn(40)
		}
		route, ok := traffic.ShortestRoute(l.g, src, dst)
		if !ok {
			l.t.Fatalf("no route %d->%d on a strongly connected fabric", src, dst)
		}
		f := traffic.Flow{ID: l.nextID, Src: src, Dst: dst, Size: size, Routes: []traffic.Route{route}}
		if err := l.p.Submit(f, l.p.Boundary()); err != nil {
			l.t.Fatal(err)
		}
		if l.rng.Intn(steadyCancelIn) == 0 {
			l.cancel = append(l.cancel, f.ID)
		}
		l.nextID++
	}
	plan, err := l.p.PlanNext()
	if err != nil {
		l.t.Fatal(err)
	}
	stat, err := l.p.Commit(plan)
	if err != nil {
		l.t.Fatal(err)
	}
	return stat
}

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// seenBytes measures what Pipeline.seen costs once n sequential IDs have
// been submitted: the one structure that is meant to grow with the
// pipeline's lifetime (Submit's duplicate-ID contract).
func seenBytes(n int) uint64 {
	before := liveHeap()
	seen := make(map[int]bool)
	for id := 0; id < n; id++ {
		seen[id] = false
	}
	after := liveHeap()
	runtime.KeepAlive(seen)
	return after - before
}

// TestSoakSteadyState is the long-lived path's regression net: at a steady
// backlog, 20 000 epochs must leave the engine holding what its live load
// needs and nothing that remembers the 800 000 flows it has admitted —
// packet conservation at every commit, a slot table no larger than the
// backlog, no cancellation request outliving its flow, and a heap that,
// net of the seen index, ends where it stood at the quarter mark.
func TestSoakSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const epochs = 20000
	l := newSteadyLoad(t)
	p := l.p
	var quarter uint64
	maxLive := 0
	for e := 1; e <= epochs; e++ {
		stat := l.epoch()
		tot := p.Totals()
		held := tot.Delivered + tot.Dropped + tot.Cancelled + tot.SurvivedRedundant + p.BacklogPackets() + p.QueuedPackets()
		if tot.Submitted != held || p.violations != 0 {
			t.Fatalf("epoch %d: packets not conserved: submitted %d, accounted %d (%d violations counted)", e, tot.Submitted, held, p.violations)
		}
		if p.tab.held != p.BacklogPackets() || stat.Backlog != p.BacklogPackets() {
			t.Fatalf("epoch %d: slots hold %d packets, the stat says %d, the backlog has %d", e, p.tab.held, stat.Backlog, p.BacklogPackets())
		}
		if live, bound := p.LiveFlows(), len(p.backlog.Flows)+steadyArrivals; live > bound {
			t.Fatalf("epoch %d: %d live slots for %d backlog flows", e, live, len(p.backlog.Flows))
		}
		maxLive = max(maxLive, p.LiveFlows())
		// A request names a flow of the previous epoch, so it is applied or
		// found stale by the commit after the one it was made before.
		if n := len(p.cancelled); n > 2*steadyArrivals {
			t.Fatalf("epoch %d: %d cancellation requests pending", e, n)
		}
		if e == epochs/4 {
			quarter = liveHeap() - seenBytes(l.nextID)
		}
	}
	if maxLive == 0 || p.Totals().Cancelled == 0 {
		t.Fatalf("the load never built a backlog (%d live at most) or never cancelled (%+v)", maxLive, p.Totals())
	}
	end := liveHeap() - seenBytes(l.nextID)
	t.Logf("%d epochs, %d flows: at most %d live; heap net of seen %d KiB at the quarter mark, %d KiB at the end",
		epochs, l.nextID, maxLive, quarter>>10, end>>10)
	if float64(end) > 1.10*float64(quarter) {
		t.Fatalf("heap net of seen grew from %d to %d bytes at constant backlog", quarter, end)
	}
}

// BenchmarkEpochSteadyState times one submit + PlanNext + Commit cycle at
// the steady backlog of TestSoakSteadyState.
func BenchmarkEpochSteadyState(b *testing.B) {
	l := newSteadyLoad(b)
	for e := 0; e < 200; e++ { // reach the steady backlog
		l.epoch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.epoch()
	}
}
