package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
