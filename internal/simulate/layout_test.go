package simulate

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/par"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// This file pins the index form of the replay state: that building every
// queue at once is building it one flow at a time, what a flow costs, and
// that the narrow fields refuse what they cannot hold.

// refGroup is a group as the one-at-a-time build held it: by value, with
// the flow's ID and route in it.
type refGroup struct {
	flowID int
	route  traffic.Route
	wlen   int
	prio   int64
	pos    int
	count  int
	avail  int
}

// refInsert is the build newState replaced, kept as its oracle: find the
// group's place by binary search on (prio desc, ID asc), merge with the
// group already there when the two are interchangeable, shift the rest up
// otherwise. One departure: it merged on (ID, pos, avail) alone; like the
// replay's merge it now wants equal prio too.
func refInsert(q []refGroup, g refGroup) []refGroup {
	i := sort.Search(len(q), func(i int) bool {
		if q[i].prio != g.prio {
			return q[i].prio < g.prio
		}
		return q[i].flowID >= g.flowID
	})
	if i < len(q) && q[i].prio == g.prio && q[i].flowID == g.flowID && q[i].pos == g.pos && q[i].avail == g.avail {
		q[i].count += g.count
		return q
	}
	q = append(q, refGroup{})
	copy(q[i+1:], q[i:])
	q[i] = g
	return q
}

// refQueues builds every VOQ of the load with refInsert, in load order.
func refQueues(g *graph.Digraph, load *traffic.Load, opt Options) [][]refGroup {
	queues := make([][]refGroup, g.M())
	for i := range load.Flows {
		f := &load.Flows[i]
		r := f.Routes[0]
		wl := f.WeightLen(r)
		id := g.LinkID(r[0], r[1])
		queues[id] = refInsert(queues[id], refGroup{
			flowID: f.ID, route: r, wlen: wl, prio: traffic.HopWeight(wl, 0, opt.Epsilon64),
			count: f.Size,
		})
	}
	return queues
}

// queuesOf reads a state's VOQs back into the oracle's form.
func queuesOf(t *testing.T, st *state) [][]refGroup {
	t.Helper()
	queues := make([][]refGroup, len(st.qidx))
	for id, qi := range st.qidx {
		for _, gi := range st.queues[qi] {
			gr := &st.groups[gi]
			if r := st.route(gr); int(gr.hops) != r.Hops() {
				t.Fatalf("link %d: group of flow %d caches %d hops, its route has %d", id, st.id(gr), gr.hops, r.Hops())
			}
			queues[id] = append(queues[id], refGroup{
				flowID: st.id(gr), route: st.route(gr), wlen: int(gr.wlen), prio: gr.prio, pos: int(gr.pos),
				count: int(gr.count), avail: int(gr.avail),
			})
		}
	}
	return queues
}

// layoutLoad draws a load whose first hops collide: a small fabric, one to
// three routes a flow of one to three hops, an occasional WeightHops.
func layoutLoad(rng *rand.Rand, g *graph.Digraph, flows int) *traffic.Load {
	load := &traffic.Load{}
	for len(load.Flows) < flows {
		src := rng.Intn(g.N())
		dst := (src + 1 + rng.Intn(g.N()-1)) % g.N()
		f := traffic.Flow{ID: len(load.Flows) + 1, Size: 1 + rng.Intn(50), Src: src, Dst: dst}
		for k := 1 + rng.Intn(3); len(f.Routes) < k; {
			if r, ok := traffic.RandomRoute(g, src, dst, 1+rng.Intn(3), rng); ok {
				f.Routes = append(f.Routes, r)
			}
		}
		if rng.Intn(5) == 0 {
			f.WeightHops = 3 + rng.Intn(2)
		}
		load.Flows = append(load.Flows, f)
	}
	return load
}

// TestBulkBuildEqualsIncrementalInsert: count, carve, deal and sort once
// leaves every queue as inserting the flows one at a time leaves it, whether
// flow IDs ascend in load order (prio-only sort) or are shuffled (full
// comparator), with multi-route flows and an ε in play.
func TestBulkBuildEqualsIncrementalInsert(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Complete(4 + rng.Intn(4))
		load := layoutLoad(rng, g, 20+rng.Intn(200))
		opt := Options{Epsilon64: []int{0, 0, 7, 64}[rng.Intn(4)]}
		if seed%3 == 1 {
			rng.Shuffle(len(load.Flows), func(i, j int) { load.Flows[i], load.Flows[j] = load.Flows[j], load.Flows[i] })
		}
		if err := load.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st, err := newState(g, load, opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := queuesOf(t, st), refQueues(g, load, opt); !reflect.DeepEqual(got, want) {
			for id := range want {
				if !reflect.DeepEqual(got[id], want[id]) {
					t.Fatalf("seed %d link %d:\n bulk        %+v\n incremental %+v", seed, id, got[id], want[id])
				}
			}
		}
		if len(st.free) != 0 {
			t.Fatalf("seed %d: %d groups free before the replay", seed, len(st.free))
		}
	}
}

// TestDrainedGroupsAreReused: a group the replay has emptied gives its slot
// to the next one formed, so the array holds the groups alive at once, not
// every group there ever was (a multi-hop replay forms one a packet-hop).
func TestDrainedGroupsAreReused(t *testing.T) {
	g := graph.Complete(4)
	load := &traffic.Load{Flows: []traffic.Flow{{ID: 1, Size: 500, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 2, 3}}}}}
	st, err := newState(g, load, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.runMultiHop([]graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}, 0, 600, (*fault.Trace)(nil).Cursor())
	if st.res.Delivered != 500 || st.res.Hops != 1500 {
		t.Fatalf("delivered %d packets over %d hops, want 500 over 1500", st.res.Delivered, st.res.Hops)
	}
	// The source's, and at each relay one arriving while one leaves.
	if len(st.groups) > 5 {
		t.Fatalf("%d groups for one flow over two relays, want at most 5", len(st.groups))
	}
}

// TestReplayIndexWidthsFailClosed: the replay counts packets and slots in 32
// bits and route positions in 16. Run refuses what would not fit with an
// error — never a wrapped count — and replays a load just inside the limits
// like any other.
func TestReplayIndexWidthsFailClosed(t *testing.T) {
	g := graph.Complete(3)
	load := func(size int, r traffic.Route) *traffic.Load {
		return &traffic.Load{Flows: []traffic.Flow{
			{ID: 1, Size: size, Src: r.Src(), Dst: r.Dst(), Routes: []traffic.Route{r}},
			{ID: 2, Size: 7, Src: 1, Dst: 2, Routes: []traffic.Route{{1, 2}}},
		}}
	}
	sch := func(alpha int) *schedule.Schedule {
		return &schedule.Schedule{Delta: 1, Configs: []schedule.Configuration{
			{Links: []graph.Edge{{From: 0, To: 1}}, Alpha: alpha},
			{Links: []graph.Edge{{From: 1, To: 2}}, Alpha: 50},
		}}
	}
	res, err := Run(g, load(math.MaxInt32, traffic.Route{0, 1, 2}), sch(40), Options{})
	if err != nil {
		t.Fatalf("a flow of 2^31-1 packets: %v", err)
	}
	// Flow 2's seven go first on 1->2 (one hop outweighs two), then the forty.
	if res.TotalPackets != math.MaxInt32+7 || res.Delivered != 47 || res.Hops != 87 || res.Stranded != 0 {
		t.Fatalf("in-range replay: %+v", res)
	}
	if _, err := Run(g, load(math.MaxInt32+1, traffic.Route{0, 1, 2}), sch(40), Options{}); err == nil || !strings.Contains(err.Error(), "size") {
		t.Errorf("a flow of 2^31 packets: err = %v, want a size error", err)
	}
	long := make(traffic.Route, math.MaxInt16+1)
	for i := range long {
		long[i] = i % 2
	}
	if _, err := Run(g, load(5, long), sch(40), Options{}); err == nil {
		t.Errorf("a route of %d nodes replayed", len(long))
	}
	// Slots: the last one a configuration may end at is MaxInt32.
	if _, err := Run(g, load(5, traffic.Route{0, 1, 2}), sch(math.MaxInt32-1), Options{}); err == nil || !strings.Contains(err.Error(), "slot") {
		t.Errorf("a schedule of 2^31+51 slots: err = %v, want a slot error", err)
	}
	res, err = Run(g, load(5, traffic.Route{0, 1, 2}), sch(math.MaxInt32-52), Options{})
	if err != nil || res.SlotsUsed != math.MaxInt32 || res.Delivered != 12 {
		t.Errorf("a schedule of 2^31-1 slots: %+v, %v", res, err)
	}
}

// podInstance is a single-route load of the given size, ascending IDs, on a
// pod fabric: the shape of the benchmark's pods-flows workload.
func podInstance(tb testing.TB, pods, podSize, flows int) (*graph.Digraph, *traffic.Load) {
	tb.Helper()
	pp := traffic.DefaultPodParams(pods, podSize, 512)
	pp.LargePerPod = flows / pods / 4
	pp.SmallPerPod = flows/pods - pp.LargePerPod
	pp.LargeTotal, pp.SmallTotal = max(pp.LargeTotal, pp.LargePerPod), max(pp.SmallTotal, pp.SmallPerPod)
	store, err := traffic.PodSynthetic(pp, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	load := store.Materialize(nil)
	if len(load.Flows) != flows {
		tb.Fatalf("generated %d flows, want %d", len(load.Flows), flows)
	}
	return pp.Fabric(), load
}

// TestNewStateBytesPerFlow: the replay state costs a single-route flow a
// 32-byte group with an eighth of head-room and a queue slot (one 96-byte
// group with a route slice in it, placed by binary search, read 112 bytes a
// flow here). A group holds no pointer, so the runtime allocates the array
// noscan.
func TestNewStateBytesPerFlow(t *testing.T) {
	if s := unsafe.Sizeof(group{}); s > 32 {
		t.Fatalf("group is %d bytes, want at most 32", s)
	}
	ty := reflect.TypeOf(group{})
	for i := 0; i < ty.NumField(); i++ {
		switch k := ty.Field(i).Type.Kind(); k {
		case reflect.Bool, reflect.Int16, reflect.Int32, reflect.Int64:
		default:
			t.Errorf("group.%s is a %s: the array must stay pointer-free", ty.Field(i).Name, k)
		}
	}
	const flows = 100_000
	g, load := podInstance(t, 16, 16, flows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := newState(g, load, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / flows
	if perFlow > 48 {
		t.Fatalf("newState allocates %.1f bytes a flow (%d flows, %d links), want at most 48", perFlow, flows, len(st.qidx))
	}
	t.Logf("%.1f bytes a flow", perFlow)
}

// TestQueueBuildParallelEqualsSerial: every queue of the replay state is in
// priority order, and the state built under GOMAXPROCS 2 and 8 — groups, free list and every queue — is the one built
// under GOMAXPROCS 1, on a pod load that the deal and the per-link sorts cut
// into several work items: in load order and shuffled.
func TestQueueBuildParallelEqualsSerial(t *testing.T) {
	g, load := podInstance(t, 16, 16, 200_000)
	shuffled := &traffic.Load{Flows: slices.Clone(load.Flows)}
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Flows), func(i, j int) {
		shuffled.Flows[i], shuffled.Flows[j] = shuffled.Flows[j], shuffled.Flows[i]
	})
	if len(load.Flows) < 4*par.Item {
		t.Fatalf("%d flows make fewer than four work items", len(load.Flows))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, l := range map[string]*traffic.Load{"ascending": load, "shuffled": shuffled} {
		opt := Options{Epsilon64: 8}
		var serial *state
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			st, err := newState(g, l, opt)
			if err != nil {
				t.Fatal(err)
			}
			if serial == nil {
				serial = st
				// With IDs unique, (prio desc, ID asc) is strict: the order the
				// queues must hold, whatever order the deal left them in.
				for id, qi := range st.qidx {
					q := st.queues[qi]
					for i := 1; i < len(q); i++ {
						a, b := &st.groups[q[i-1]], &st.groups[q[i]]
						if a.prio < b.prio || a.prio == b.prio && st.id(a) >= st.id(b) {
							t.Fatalf("%s: link %d queues flow %d before %d", name, id, st.id(a), st.id(b))
						}
					}
				}
				continue
			}
			if !slices.Equal(st.groups, serial.groups) || !slices.Equal(st.free, serial.free) {
				t.Fatalf("%s, GOMAXPROCS %d: groups or free list differ", name, procs)
			}
			if !slices.Equal(st.qidx, serial.qidx) {
				t.Fatalf("%s, GOMAXPROCS %d: queue index differs", name, procs)
			}
			for id, qi := range st.qidx {
				if !slices.Equal(st.queues[qi], serial.queues[qi]) {
					t.Fatalf("%s, GOMAXPROCS %d: queue of link %d differs", name, procs, id)
				}
			}
		}
	}
}

// TestQueuesAreRunsInServeOrder: the replay state is built in serve order.
// Each flow's group takes its place in its first hop's queue, queues in link
// id order, so that every queue is a run of consecutive group indices and the
// runs follow one another — whether flow IDs ascend in load order, are
// shuffled, or flows carry several routes.
func TestQueuesAreRunsInServeOrder(t *testing.T) {
	g, load := podInstance(t, 8, 8, 20_000)
	shuffled := &traffic.Load{Flows: slices.Clone(load.Flows)}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled.Flows), func(i, j int) { shuffled.Flows[i], shuffled.Flows[j] = shuffled.Flows[j], shuffled.Flows[i] })
	mg := graph.Complete(7)
	multi := layoutLoad(rng, mg, 2_000)
	for _, c := range []struct {
		name string
		g    *graph.Digraph
		load *traffic.Load
		opt  Options
	}{{"ascending", g, load, Options{}}, {"shuffled", g, shuffled, Options{Epsilon64: 8}}, {"multi-route", mg, multi, Options{}}} {
		st, err := newState(c.g, c.load, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		next := int32(0)
		for id, qi := range st.qidx {
			q := st.queues[qi]
			for _, gi := range q {
				if gi != next {
					t.Fatalf("%s: link %d queues groups %v, not a run from %d", c.name, id, q, next)
				}
				next++
			}
		}
		if int(next) != len(c.load.Flows) {
			t.Fatalf("%s: %d groups queued for %d flows", c.name, next, len(c.load.Flows))
		}
	}
}
