package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/par"
)

// TestValidateMessages pins the error each kind of bad load fails with. The
// messages are the ones Validate produced when it built an ID set for every
// load and walked every route twice.
func TestValidateMessages(t *testing.T) {
	ring := graph.Ring(4) // 0->1->2->3->0
	route := func(id int, r ...int) Flow {
		return Flow{ID: id, Size: 1, Src: r[0], Dst: r[len(r)-1], Routes: []Route{r}}
	}
	cases := []struct {
		name  string
		g     *graph.Digraph
		flows []Flow
		want  string // "" = valid
	}{
		{"ascending", ring, []Flow{route(1, 0, 1), route(2, 1, 2), route(7, 2, 3, 0)}, ""},
		{"out of order, unique", ring, []Flow{route(5, 0, 1), route(2, 1, 2), route(9, 2, 3)}, ""},
		{"ascending then equal", ring, []Flow{route(1, 0, 1), route(2, 1, 2), route(2, 2, 3)},
			"traffic: duplicate flow ID 2"},
		{"out-of-order duplicate", ring, []Flow{route(5, 0, 1), route(2, 1, 2), route(9, 2, 3), route(5, 3, 0)},
			"traffic: duplicate flow ID 5"},
		{"duplicate before a later defect", ring, []Flow{route(3, 0, 1), route(3, 1, 2), {ID: 4, Size: 0}},
			"traffic: duplicate flow ID 3"},
		{"repeated node", graph.Complete(4), []Flow{route(1, 0, 1, 0, 2)},
			"traffic: flow 1 route [0 1 0 2] is not a path of the fabric"},
		{"repeated node and non-edge hop", ring, []Flow{route(1, 0, 1, 0, 1)},
			"traffic: flow 1 route [0 1 0 1]: hop 1 (1->0) is not a fabric link"},
		{"out-of-range node", ring, []Flow{route(1, 0, 7, 2)},
			"traffic: flow 1 route [0 7 2]: hop 0 (0->7) is not a fabric link"},
		{"out-of-range source", ring, []Flow{route(1, -1, 0)},
			"traffic: flow 1 route [-1 0]: hop 0 (-1->0) is not a fabric link"},
		{"non-edge hop", ring, []Flow{route(1, 0, 1, 3)},
			"traffic: flow 1 route [0 1 3]: hop 1 (1->3) is not a fabric link"},
	}
	for _, c := range cases {
		err := (&Load{Flows: c.flows}).Validate(c.g)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// validateLoad is a single-route load with ascending IDs on a pod fabric.
func validateLoad(tb testing.TB, pods, podSize, flows int) (*graph.Digraph, *Load) {
	tb.Helper()
	pp := DefaultPodParams(pods, podSize, 512)
	pp.LargePerPod = flows / pods / 4
	pp.SmallPerPod = flows/pods - pp.LargePerPod
	pp.LargeTotal = max(pp.LargeTotal, pp.LargePerPod)
	pp.SmallTotal = max(pp.SmallTotal, pp.SmallPerPod)
	store, err := PodSynthetic(pp, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return pp.Fabric(), store.Materialize(nil)
}

// TestValidateAllocFree: an op validates its load three times (decode,
// core.New, simulate.Run), so the ascending-ID path must not allocate.
func TestValidateAllocFree(t *testing.T) {
	g, load := validateLoad(t, 4, 8, 2000)
	if n := testing.AllocsPerRun(10, func() {
		if err := load.Validate(g); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocates %v times on an ascending-ID load, want 0", n)
	}
}

// refValidate is Validate as one serial loop with an ID set from the
// first flow on.
func refValidate(l *Load, g *graph.Digraph) error {
	seen := make(map[int]bool)
	for i := range l.Flows {
		f := &l.Flows[i]
		if seen[f.ID] {
			return fmt.Errorf("traffic: duplicate flow ID %d", f.ID)
		}
		seen[f.ID] = true
		if err := f.check(g); err != nil {
			return err
		}
	}
	return nil
}

// TestValidateParallelReportsLowestFault: a load of several work items is
// checked on the pool, and of faults in several items, or a fault after a
// descent of the IDs, Validate reports what the serial loop reports first.
func TestValidateParallelReportsLowestFault(t *testing.T) {
	g, load := validateLoad(t, 4, 8, 5*par.Item)
	n := len(load.Flows)
	for _, c := range []struct {
		name string
		mut  func(fs []Flow)
	}{
		{"valid", func([]Flow) {}},
		{"two items' faults", func(fs []Flow) { fs[3*par.Item+5].Size = 0; fs[par.Item+7].Routes = nil }},
		{"fault and later fault in one item", func(fs []Flow) { fs[n-3].Size = -1; fs[n-2].WeightHops = 99 }},
		{"descent before a fault", func(fs []Flow) { fs[par.Item].ID = fs[0].ID; fs[2*par.Item].Size = 0 }},
		{"fault before a descent", func(fs []Flow) { fs[par.Item].Size = 0; fs[4*par.Item].ID = 0 }},
		{"descent without a duplicate", func(fs []Flow) {
			fs[2*par.Item+1].ID, fs[2*par.Item+2].ID = fs[2*par.Item+2].ID, fs[2*par.Item+1].ID
		}},
	} {
		l := load.Clone()
		c.mut(l.Flows)
		want, got := refValidate(l, g), l.Validate(g)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: got %v, want %v", c.name, got, want)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	g, load := validateLoad(b, 16, 16, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := load.Validate(g); err != nil {
			b.Fatal(err)
		}
	}
}
