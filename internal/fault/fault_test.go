package fault

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"octopus/internal/graph"
)

func edge(from, to int) graph.Edge { return graph.Edge{From: from, To: to} }

func TestCursorLinkLifecycle(t *testing.T) {
	tr := &Trace{Events: []Event{
		{At: 10, Kind: LinkDown, From: 0, To: 1},
		{At: 20, Kind: LinkUp, From: 0, To: 1},
	}}
	c := tr.Cursor()
	c.AdvanceTo(9)
	if !c.LinkUsable(edge(0, 1)) {
		t.Fatal("link down before its event")
	}
	c.AdvanceTo(10)
	if c.LinkUsable(edge(0, 1)) {
		t.Fatal("link up at its down slot")
	}
	if c.LinkUsable(edge(0, 1)) || !c.LinkUsable(edge(1, 0)) {
		t.Fatal("wrong link affected")
	}
	if got := c.NextChange(); got != 20 {
		t.Fatalf("NextChange = %d, want 20", got)
	}
	c.AdvanceTo(20)
	if !c.LinkUsable(edge(0, 1)) {
		t.Fatal("link still down after its up event")
	}
	if c.AnyDown() {
		t.Fatal("AnyDown after full recovery")
	}
	if got := c.NextChange(); got != math.MaxInt {
		t.Fatalf("NextChange after last event = %d", got)
	}
}

func TestCursorNodeTakesLinksDown(t *testing.T) {
	tr := &Trace{Events: []Event{{At: 5, Kind: NodeDown, Node: 2}}}
	c := tr.Cursor()
	c.AdvanceTo(5)
	if c.LinkUsable(edge(2, 3)) || c.LinkUsable(edge(1, 2)) {
		t.Fatal("links incident to a down node usable")
	}
	if !c.LinkUsable(edge(0, 1)) {
		t.Fatal("unrelated link affected")
	}
	if c.NodeUsable(2) || !c.NodeUsable(1) {
		t.Fatal("wrong node state")
	}
	if c.FailedNodes() != 1 || c.FailedLinks() != 0 {
		t.Fatalf("failed counts = %d nodes, %d links", c.FailedNodes(), c.FailedLinks())
	}
}

func TestCursorUnsortedEventsAndIdempotence(t *testing.T) {
	// Events arrive unsorted; duplicate downs and ups must not corrupt the
	// down-counter.
	tr := &Trace{Events: []Event{
		{At: 30, Kind: LinkUp, From: 0, To: 1},
		{At: 10, Kind: LinkDown, From: 0, To: 1},
		{At: 20, Kind: LinkDown, From: 0, To: 1},
		{At: 40, Kind: LinkUp, From: 0, To: 1},
		{At: 50, Kind: NodeUp, Node: 7}, // up for a node never down
	}}
	c := tr.Cursor()
	c.AdvanceTo(25)
	if c.LinkUsable(edge(0, 1)) {
		t.Fatal("link should be down at 25")
	}
	c.AdvanceTo(60)
	if c.AnyDown() {
		t.Fatal("cursor thinks something is still down")
	}
}

func TestCursorBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards advance")
		}
	}()
	c := (&Trace{}).Cursor()
	c.AdvanceTo(10)
	c.AdvanceTo(5)
}

// TestSurviving: the fabric a cursor leaves usable at a slot drops failed
// links and every link of a failed node, considering all events with
// At <= slot.
func TestSurviving(t *testing.T) {
	g := graph.Complete(4)
	tr := &Trace{Events: []Event{
		{At: 0, Kind: LinkDown, From: 0, To: 1},
		{At: 0, Kind: NodeDown, Node: 3},
		{At: 100, Kind: NodeUp, Node: 3},
	}}
	c := tr.Cursor()
	c.AdvanceTo(0)
	s := c.SurvivingOf(g)
	if s.HasEdge(0, 1) {
		t.Fatal("failed link survived")
	}
	if s.HasEdge(1, 0) {
		// 1->0 is a distinct directed link and stays up.
	} else {
		t.Fatal("reverse link should survive")
	}
	for _, v := range []int{0, 1, 2} {
		if s.HasEdge(v, 3) || s.HasEdge(3, v) {
			t.Fatal("link incident to a down node survived")
		}
	}
	c.AdvanceTo(100)
	if got := c.SurvivingOf(g).M(); got != g.M()-1 {
		t.Fatalf("after node recovery %d links, want %d", got, g.M()-1)
	}
	// Nil trace: everything survives.
	var nilTrace *Trace
	if nilTrace.Cursor().SurvivingOf(g).M() != g.M() {
		t.Fatal("nil trace dropped links")
	}
}

func TestJitterAndEmpty(t *testing.T) {
	tr := &Trace{DeltaJitter: []int{3, 0, 7}}
	for k, want := range map[int]int{-1: 0, 0: 3, 1: 0, 2: 7, 3: 0, 100: 0} {
		if got := tr.Jitter(k); got != want {
			t.Fatalf("Jitter(%d) = %d, want %d", k, got, want)
		}
	}
	if tr.Empty() {
		t.Fatal("jittered trace reported empty")
	}
	if !(&Trace{}).Empty() {
		t.Fatal("zero trace not empty")
	}
	var nilTrace *Trace
	if !nilTrace.Empty() || nilTrace.Jitter(0) != 0 {
		t.Fatal("nil trace misbehaves")
	}
}

func TestValidate(t *testing.T) {
	g := graph.Ring(4) // edges i -> i+1 mod 4 only
	ok := &Trace{
		Events:      []Event{{At: 0, Kind: LinkDown, From: 0, To: 1}, {At: 5, Kind: NodeDown, Node: 3}},
		DeltaJitter: []int{0, 2},
	}
	if err := ok.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := []Trace{
		{Events: []Event{{At: -1, Kind: LinkDown, From: 0, To: 1}}},
		{Events: []Event{{At: 0, Kind: LinkDown, From: 1, To: 0}}}, // not a ring edge
		{Events: []Event{{At: 0, Kind: NodeDown, Node: 4}}},
		{Events: []Event{{At: 0, Kind: Kind(99), Node: 0}}},
		{DeltaJitter: []int{-1}},
	}
	for i := range bad {
		if err := bad[i].Validate(g); err == nil {
			t.Fatalf("bad trace %d accepted", i)
		}
	}
	var nilTrace *Trace
	if err := nilTrace.Validate(g); err != nil {
		t.Fatal("nil trace rejected")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := &Trace{
		Events: []Event{
			{At: 0, Kind: LinkDown, From: 3, To: 7},
			{At: 12, Kind: NodeDown, Node: 5},
			{At: 40, Kind: LinkUp, From: 3, To: 7},
			{At: 90, Kind: NodeUp, Node: 5},
		},
		DeltaJitter: []int{0, 4, 0, 9},
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr, back)
	}
}

func TestReadJSONRejectsHostileInput(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"unknown kind":  `{"events":[{"at":0,"kind":"meteor-strike"}]}`,
		"negative slot": `{"events":[{"at":-3,"kind":"link-down","from":0,"to":1}]}`,
		"negative from": `{"events":[{"at":0,"kind":"link-down","from":-1,"to":1}]}`,
		"self loop":     `{"events":[{"at":0,"kind":"link-up","from":2,"to":2}]}`,
		"negative node": `{"events":[{"at":0,"kind":"node-down","node":-2}]}`,
		"negative jit":  `{"events":[],"delta_jitter":[-5]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := &Trace{Events: []Event{{At: 1, Kind: LinkDown, From: 0, To: 2}}}
	path := t.TempDir() + "/trace.json"
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// NodeUsable reports whether node v is up at the cursor's current slot.
func (c *Cursor) NodeUsable(v int) bool { return !c.nodeDown[v] }
