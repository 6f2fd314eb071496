package traffic

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"octopus/internal/graph"
)

// TestMarkCritical: Provision protects the ⌈crit·n⌉ largest flows, ties by
// ascending ID, whatever it was asked before.
func TestMarkCritical(t *testing.T) {
	g := graph.Complete(4)
	l := &Load{Flows: []Flow{
		{ID: 0, Size: 5, Src: 0, Dst: 1, Routes: []Route{{0, 1}}},
		{ID: 1, Size: 9, Src: 1, Dst: 2, Routes: []Route{{1, 2}}},
		{ID: 2, Size: 5, Src: 2, Dst: 3, Routes: []Route{{2, 3}}},
		{ID: 3, Size: 1, Src: 3, Dst: 0, Routes: []Route{{3, 0}}},
	}}
	// Largest first, ties by ascending ID: flow 1 (size 9), then flow 0
	// (size 5, beats flow 2 on ID).
	for crit, want := range map[float64][]int{0: {}, 0.25: {1}, 0.5: {0, 1}, 1: {0, 1, 2, 3}} {
		_, red := Provision(g, l, 2, crit, 2)
		got := []int{}
		for p := range red.Members() {
			got = append(got, p)
		}
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("crit=%v protected flows %v, want %v", crit, got, want)
		}
	}
}

func TestRedundantIdentityWhenKOne(t *testing.T) {
	g := graph.Complete(6)
	rng := rand.New(rand.NewSource(3))
	l, err := Synthetic(g, DefaultSyntheticParams(6, 100), rng)
	if err != nil {
		t.Fatal(err)
	}
	out, red := Provision(g, l, 1, 1, 2)
	if !reflect.DeepEqual(out, l) || !red.Empty() {
		t.Fatal("k=1 is not the identity transform")
	}
}

func TestRedundantProvisionsDisjointAlternates(t *testing.T) {
	g := graph.Complete(6)
	l := &Load{Flows: []Flow{
		{ID: 7, Size: 4, Src: 0, Dst: 5, Routes: []Route{{0, 5}}},
		{ID: 8, Size: 2, Src: 1, Dst: 2, Routes: []Route{{1, 2}}}, // not critical
	}}
	out, red := Provision(g, l, 3, 0.5, 2)
	if err := out.Validate(g); err != nil {
		t.Fatalf("transformed load invalid: %v", err)
	}
	if got := red.Members()[7]; !reflect.DeepEqual(got, []int{7, 9, 10}) {
		t.Fatalf("critical flow got copies %v, want [7 9 10]", got)
	}
	if f := out.Flows[0]; f.ID != 7 || !f.Routes[0].Equal(Route{0, 5}) {
		t.Fatalf("primary copy changed: %+v", f)
	}
	seen := map[graph.Edge]bool{}
	for _, f := range out.Flows {
		if _, ok := red.GroupOf(f.ID); !ok {
			continue
		}
		r := f.Routes[0]
		if r.Hops() > 2 {
			t.Fatalf("route %v exceeds stretch cap 2×1", r)
		}
		for h := 0; h+1 < len(r); h++ {
			e := graph.Edge{From: r[h], To: r[h+1]}
			if seen[e] {
				t.Fatalf("edge %v reused across provisioned routes of %+v", e, out.Flows)
			}
			seen[e] = true
		}
	}
	if f := out.Flows[len(out.Flows)-1]; f.ID != 8 || len(f.Routes) != 1 || red.Duplicate(8) {
		t.Fatal("non-critical flow was touched")
	}
	// The input load must be untouched.
	if len(l.Flows) != 2 || len(l.Flows[0].Routes) != 1 {
		t.Fatal("input load mutated")
	}
}

func TestRedundantRespectsSparseFabric(t *testing.T) {
	// A directed ring has no alternate: the flow keeps only its primary.
	g := graph.ChordRing(6)
	l := &Load{Flows: []Flow{
		{ID: 0, Size: 1, Src: 0, Dst: 2, Routes: []Route{{0, 1, 2}}},
	}}
	out, red := Provision(g, l, 3, 1, 0)
	if len(out.Flows) != 1 || len(out.Flows[0].Routes) != 1 || !red.Empty() {
		t.Fatalf("ring flow got %+v (groups %v)", out.Flows, red.Group)
	}
}

func TestExpandRedundant(t *testing.T) {
	g := graph.Complete(6)
	l := &Load{Flows: []Flow{
		{ID: 0, Size: 4, Src: 0, Dst: 5, Routes: []Route{{0, 5}}},
		{ID: 1, Size: 2, Src: 1, Dst: 2, Routes: []Route{{1, 2}}},
	}}
	exp, red := Provision(g, l, 3, 0.5, 2)
	if err := exp.Validate(g); err != nil {
		t.Fatalf("expanded load invalid: %v", err)
	}
	if len(exp.Flows) != 4 {
		t.Fatalf("expanded to %d flows, want 4", len(exp.Flows))
	}
	for i := range exp.Flows {
		if n := len(exp.Flows[i].Routes); n != 1 {
			t.Fatalf("expanded flow %d has %d routes", exp.Flows[i].ID, n)
		}
	}
	if red.Empty() {
		t.Fatal("redundancy map is empty")
	}
	members := red.Members()
	if !reflect.DeepEqual(members[0], []int{0, 2, 3}) {
		t.Fatalf("group members %v, want [0 2 3]", members[0])
	}
	if red.Duplicate(0) || !red.Duplicate(2) || !red.Duplicate(3) || red.Duplicate(1) {
		t.Fatalf("duplicate classification wrong: %+v", red.Group)
	}
	if exp.TotalPackets() != 14 {
		t.Fatalf("raw total %d, want 14 (4×3 copies + 2)", exp.TotalPackets())
	}

	// Protecting nothing is a plain deep clone.
	plain, red2 := Provision(g, l, 3, 0, 2)
	if !red2.Empty() {
		t.Fatal("plain load produced groups")
	}
	if !reflect.DeepEqual(plain, l) {
		t.Fatal("plain expansion is not the identity")
	}
}

// TestRedundantFieldsRejected: redundancy is provisioned, not stored. A
// load document or JSONL stream still carrying the "critical" or
// "redundant" flow fields is refused by name, not read without them.
func TestRedundantFieldsRejected(t *testing.T) {
	const flow = `{"id":3,"size":2,"src":0,"dst":2,"routes":[[0,2],[0,1,2]]%s}`
	for _, field := range []string{`,"critical":true`, `,"redundant":2`} {
		rec := fmt.Sprintf(flow, field)
		name := strings.Split(field[2:], `"`)[0]
		for enc, data := range map[string]string{
			"document": `{"flows":[` + rec + `]}`,
			"jsonl":    `{"format":"mhs-flows/v1"}` + "\n" + rec + "\n",
		} {
			_, err := ReadAny(strings.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+name+`"`) {
				t.Errorf("%s with %q: err = %v, want an unknown-field error", enc, name, err)
			}
		}
	}
	// Without them the same flow reads.
	if _, err := ReadAny(strings.NewReader(`{"flows":[` + fmt.Sprintf(flow, "") + `]}`)); err != nil {
		t.Fatal(err)
	}
}

func TestValidateNamesOffendingHop(t *testing.T) {
	g := graph.ChordRing(5) // ring only: no edge 0->2
	l := &Load{Flows: []Flow{
		{ID: 9, Size: 1, Src: 0, Dst: 3, Routes: []Route{{0, 2, 3}}},
	}}
	err := l.Validate(g)
	if err == nil {
		t.Fatal("validation accepted a route off the fabric")
	}
	want := "traffic: flow 9 route [0 2 3]: hop 0 (0->2) is not a fabric link"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
