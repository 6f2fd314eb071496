package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"octopus/internal/graph"
	"octopus/internal/par"
	"octopus/internal/traffic"
)

// newRemaining builds T^r on GOMAXPROCS workers, as Parallelism 0 does.
func newRemaining(g *graph.Digraph, load *traffic.Load, eps int, multiRoute, backtrack, keepTrace bool) *remaining {
	return buildRemaining(g, load, 0, eps, multiRoute, backtrack, keepTrace)
}

// TestQueueBuildParallelEqualsSerial: every queue of T^r is in priority
// order, and T^r built at Parallelism 2 and 8 is T^r built at Parallelism 1
// — the arrays, every link's entry order and
// weight classes, the changed-link count and the candidate α's — on a pod
// load that the deal and the per-link passes cut into several work items,
// in load order (IDs ascending) and shuffled (the full comparator).
func TestQueueBuildParallelEqualsSerial(t *testing.T) {
	g, load := podInstance(t, 16, 16, 200_000)
	shuffled := &traffic.Load{Flows: slices.Clone(load.Flows)}
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Flows), func(i, j int) {
		shuffled.Flows[i], shuffled.Flows[j] = shuffled.Flows[j], shuffled.Flows[i]
	})
	if len(load.Flows) < 4*par.Item {
		t.Fatalf("%d flows make fewer than four work items", len(load.Flows))
	}
	for name, l := range map[string]*traffic.Load{"ascending": load, "shuffled": shuffled} {
		serial := buildRemaining(g, l, 1, 8, false, false, false)
		// Every flow queues once per link, so (bw desc, ID asc) is strict: the
		// order the queues must hold, whatever order the deal left them in.
		for _, ls := range serial.stateList {
			for i := 1; i < len(ls.entries); i++ {
				if serial.cmpEntries(ls.entries[i-1], ls.entries[i]) >= 0 {
					t.Fatalf("%s: link %v queues entry %d before %d", name, ls.edge, ls.entries[i-1], ls.entries[i])
				}
			}
		}
		for _, workers := range []int{2, 8} {
			tr := buildRemaining(g, l, workers, 8, false, false, false)
			if !reflect.DeepEqual(tr.subflows, serial.subflows) || !reflect.DeepEqual(tr.entries, serial.entries) || !reflect.DeepEqual(tr.homes, serial.homes) {
				t.Fatalf("%s, Parallelism %d: subflows, entries or homes differ", name, workers)
			}
			for id, ls := range tr.links {
				want := serial.links[id]
				if (ls == nil) != (want == nil) {
					t.Fatalf("%s, Parallelism %d: link %d has a state %v, serially %v", name, workers, id, ls != nil, want != nil)
				}
				if ls != nil && (ls.edge != want.edge || ls.changed != want.changed || !slices.Equal(ls.entries, want.entries) || !slices.Equal(ls.classes, want.classes)) {
					t.Fatalf("%s, Parallelism %d: link %v queue or classes differ", name, workers, ls.edge)
				}
			}
			if got, want := tr.candidateAlphas(512), serial.candidateAlphas(512); !slices.Equal(got, want) {
				t.Fatalf("%s, Parallelism %d: candidate α's %v, serially %v", name, workers, got, want)
			}
			// Last: takeChanged clears the marks the next comparison reads.
			if got, want := tr.takeChanged(), buildRemaining(g, l, 1, 8, false, false, false).takeChanged(); got != want {
				t.Fatalf("%s, Parallelism %d: %d links changed, serially %d", name, workers, got, want)
			}
		}
	}
}

// TestInitialQueuesAreRunsInServeOrder: T^r is built in serve order. The
// initial subflows are numbered by the place their first entry takes in the
// queues — link id, then (bw desc, flow ID asc) — and their entry windows
// follow one another in that order. So the subflows whose first entry queues
// on a link are a run of consecutive indices, in queue order, and where every
// subflow queues once (IDs ascending or shuffled) a queue is a run of
// consecutive entries, entry i belonging to subflow i. The states of the
// links that hold an entry sit in one slab in edge order.
func TestInitialQueuesAreRunsInServeOrder(t *testing.T) {
	g, load := podInstance(t, 8, 8, 20_000)
	shuffled := &traffic.Load{Flows: slices.Clone(load.Flows)}
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Flows), func(i, j int) {
		shuffled.Flows[i], shuffled.Flows[j] = shuffled.Flows[j], shuffled.Flows[i]
	})
	mg, multi := multiRouteInstance(t, 1, 24, 800, 4)
	for _, c := range []struct {
		name       string
		g          *graph.Digraph
		load       *traffic.Load
		multiRoute bool
	}{{"ascending", g, load, false}, {"shuffled", g, shuffled, false}, {"multi-route", mg, multi, true}} {
		tr := newRemaining(c.g, c.load, 8, c.multiRoute, c.multiRoute, false)
		at, windows := int32(0), 0
		for si := range c.load.Flows {
			sf := tr.subflows[si]
			if sf.homes != at {
				t.Fatalf("%s: subflow %d's entries start at %d, not where subflow %d's end (%d)", c.name, si, sf.homes, si-1, at)
			}
			if a := tr.subflows[max(0, si-1)].homes; si > 0 && (tr.homes[a] > tr.homes[at] || tr.homes[a] == tr.homes[at] && tr.cmpEntries(a, at) >= 0) {
				t.Fatalf("%s: subflow %d's first entry %d is not served after subflow %d's, %d", c.name, si, at, si-1, a)
			}
			at += sf.nHomes
			windows += min(1, int(sf.nHomes)-1)
		}
		if int(at) != len(tr.entries) || c.multiRoute != (windows > 0) {
			t.Fatalf("%s: windows cover %d of %d entries, %d hold several", c.name, at, len(tr.entries), windows)
		}
		for i, ls := range tr.stateList {
			if prev := tr.stateList[max(0, i-1)]; i > 0 && (cmpEdge(prev.edge, ls.edge) >= 0 || uintptr(unsafe.Pointer(ls))-uintptr(unsafe.Pointer(prev)) != unsafe.Sizeof(*ls)) {
				t.Fatalf("%s: link %v's state does not follow %v's in the slab", c.name, ls.edge, prev.edge)
			}
			var firsts []int32 // the subflows whose first entry queues here
			for _, ei := range ls.entries {
				if si := tr.entries[ei].sf; tr.subflows[si].homes == ei {
					firsts = append(firsts, si)
				}
			}
			for k, si := range firsts {
				if si != firsts[0]+int32(k) || !c.multiRoute && ls.entries[k] != si {
					t.Fatalf("%s: link %v queues subflows %v as entries %v, not one run", c.name, ls.edge, firsts, ls.entries)
				}
			}
			if !c.multiRoute && len(firsts) != len(ls.entries) {
				t.Fatalf("%s: link %v holds %d entries, %d of them first entries", c.name, ls.edge, len(ls.entries), len(firsts))
			}
		}
	}
}
