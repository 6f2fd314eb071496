// Package fault models deterministic fabric-failure traces for
// circuit-switched networks: timed link-down/link-up and node-down/node-up
// events, plus optional per-reconfiguration jitter on the delay Δ. The
// paper's target fabrics (free-space optics, 60GHz wireless, §2) lose links
// routinely; this package lets the simulator and the online controller
// replay those failures reproducibly — the same (seed, trace) pair always
// yields the same run.
//
// A Trace is a pure description of what fails when. Consumers walk it with
// a Cursor, which applies events monotonically in slot order and answers
// "is this link usable at slot t?" queries, or snapshot the surviving
// fabric at a slot with Surviving. A down node takes all of its incident
// links down; a link is usable only when the link itself and both of its
// endpoints are up.
package fault

import (
	"fmt"
	"math"
	"sort"

	"octopus/internal/graph"
)

// Kind enumerates failure-trace event types.
type Kind int

const (
	// LinkDown takes the directed link From->To out of service.
	LinkDown Kind = iota
	// LinkUp restores the directed link From->To.
	LinkUp
	// NodeDown takes a node (and implicitly all its incident links) out of
	// service.
	NodeDown
	// NodeUp restores a node.
	NodeUp
)

// String returns the JSON spelling of the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one failure-trace event, taking effect at slot At: the state it
// establishes holds for slot At itself and onward. Link events use From/To;
// node events use Node.
type Event struct {
	At       int
	Kind     Kind
	From, To int // link events
	Node     int // node events
}

// IsLink reports whether the event concerns a link (as opposed to a node).
func (e Event) IsLink() bool { return e.Kind == LinkDown || e.Kind == LinkUp }

// Trace is a deterministic failure schedule. Events need not be sorted;
// ties at the same slot apply in listed order. DeltaJitter[k], when present,
// adds that many extra slots to the k-th reconfiguration delay of a replay
// (or the k-th epoch of an online run); indexes past the end of the slice
// jitter by 0.
type Trace struct {
	Events      []Event
	DeltaJitter []int
}

// Empty reports whether the trace changes nothing: no events and no jitter.
func (t *Trace) Empty() bool {
	return t == nil || (len(t.Events) == 0 && len(t.DeltaJitter) == 0)
}

// Jitter returns the extra reconfiguration-delay slots of the k-th
// reconfiguration (0 beyond the configured jitter, or for a nil trace).
func (t *Trace) Jitter(k int) int {
	if t == nil || k < 0 || k >= len(t.DeltaJitter) {
		return 0
	}
	return t.DeltaJitter[k]
}

// Validate checks the trace against fabric g: event slots non-negative,
// jitter non-negative, node references inside the fabric, and link events
// naming actual fabric links. A trace that fails Validate would otherwise
// silently never fire, which almost always indicates a mismatched fabric.
func (t *Trace) Validate(g *graph.Digraph) error {
	if t == nil {
		return nil
	}
	for i, e := range t.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d at negative slot %d", i, e.At)
		}
		switch e.Kind {
		case LinkDown, LinkUp:
			if !g.HasEdge(e.From, e.To) {
				return fmt.Errorf("fault: event %d (%s) names absent link %d->%d", i, e.Kind, e.From, e.To)
			}
		case NodeDown, NodeUp:
			if e.Node < 0 || e.Node >= g.N() {
				return fmt.Errorf("fault: event %d (%s) names node %d outside fabric [0,%d)", i, e.Kind, e.Node, g.N())
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	for k, j := range t.DeltaJitter {
		if j < 0 {
			return fmt.Errorf("fault: negative delta jitter %d at reconfiguration %d", j, k)
		}
	}
	return nil
}

// Cursor returns a new cursor positioned before slot 0. A nil trace yields
// a cursor over no events.
func (t *Trace) Cursor() *Cursor {
	c := &Cursor{
		linkDown: make(map[graph.Edge]bool),
		nodeDown: make(map[int]bool),
		now:      -1,
	}
	if t != nil {
		c.events = append([]Event(nil), t.Events...)
		sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].At < c.events[j].At })
	}
	return c
}

// Cursor walks a trace monotonically through time, maintaining the set of
// currently failed links and nodes.
type Cursor struct {
	events   []Event // sorted by At, stable
	next     int     // first unapplied event
	linkDown map[graph.Edge]bool
	nodeDown map[int]bool
	now      int
	downs    int // number of currently down links + nodes
}

// AdvanceTo applies every event with At <= slot. Slots must be visited in
// non-decreasing order; advancing backwards panics, because replaying a
// trace out of order would silently desynchronize the failure state.
func (c *Cursor) AdvanceTo(slot int) {
	if slot < c.now {
		panic(fmt.Sprintf("fault: cursor moved backwards from slot %d to %d", c.now, slot))
	}
	c.now = slot
	for c.next < len(c.events) && c.events[c.next].At <= slot {
		e := c.events[c.next]
		c.next++
		switch e.Kind {
		case LinkDown:
			key := graph.Edge{From: e.From, To: e.To}
			if !c.linkDown[key] {
				c.linkDown[key] = true
				c.downs++
			}
		case LinkUp:
			key := graph.Edge{From: e.From, To: e.To}
			if c.linkDown[key] {
				delete(c.linkDown, key)
				c.downs--
			}
		case NodeDown:
			if !c.nodeDown[e.Node] {
				c.nodeDown[e.Node] = true
				c.downs++
			}
		case NodeUp:
			if c.nodeDown[e.Node] {
				delete(c.nodeDown, e.Node)
				c.downs--
			}
		}
	}
}

// NextChange returns the slot of the next unapplied event, or math.MaxInt
// when the trace holds no further events. After AdvanceTo(s) the returned
// slot is strictly greater than s.
func (c *Cursor) NextChange() int {
	if c.next >= len(c.events) {
		return math.MaxInt
	}
	return c.events[c.next].At
}

// LinkUsable reports whether the link e is usable at the cursor's current
// slot: the link itself is up and so are both of its endpoints.
func (c *Cursor) LinkUsable(e graph.Edge) bool {
	if c.downs == 0 {
		return true
	}
	return !c.linkDown[e] && !c.nodeDown[e.From] && !c.nodeDown[e.To]
}

// AnyDown reports whether any link or node is currently failed.
func (c *Cursor) AnyDown() bool { return c.downs > 0 }

// FailedLinks returns the number of currently failed links (not counting
// links implied down by failed nodes).
func (c *Cursor) FailedLinks() int { return len(c.linkDown) }

// FailedNodes returns the number of currently failed nodes.
func (c *Cursor) FailedNodes() int { return len(c.nodeDown) }

// SurvivingOf returns the subgraph of g that is usable at the cursor's
// current slot: g itself while nothing is down, a fresh snapshot otherwise.
// Callers must treat the result as read-only.
func (c *Cursor) SurvivingOf(g *graph.Digraph) *graph.Digraph {
	if c.downs == 0 {
		return g
	}
	return g.Subgraph(c.LinkUsable)
}
