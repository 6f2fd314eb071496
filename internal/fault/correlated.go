// Correlated-failure generation: a node's entire incident link set going
// down in one burst, the failure mode that stresses proactive multipath
// redundancy hardest. Unlike a NodeDown event — which also removes the node
// as a buffering waypoint — a correlated link burst leaves the node up, so
// in-flight packets parked there survive and only the spatial diversity of
// the provisioned routes decides whether traffic keeps flowing.
package fault

import "octopus/internal/graph"

// NodeLinksDown returns one LinkDown event at slot at for every fabric link
// incident to node (incoming and outgoing), in deterministic order:
// outgoing links by ascending neighbor, then incoming links by ascending
// neighbor.
func NodeLinksDown(g *graph.Digraph, node, at int) []Event {
	return nodeLinkEvents(g, node, at, LinkDown)
}

// NodeLinksUp returns the matching LinkUp burst restoring every link
// incident to node at slot at, in the same deterministic order as
// NodeLinksDown.
func NodeLinksUp(g *graph.Digraph, node, at int) []Event {
	return nodeLinkEvents(g, node, at, LinkUp)
}

func nodeLinkEvents(g *graph.Digraph, node, at int, kind Kind) []Event {
	var evs []Event
	for _, to := range g.Out(node) {
		evs = append(evs, Event{At: at, Kind: kind, From: node, To: to})
	}
	for _, from := range g.In(node) {
		evs = append(evs, Event{At: at, Kind: kind, From: from, To: node})
	}
	return evs
}

// CorrelatedTrace builds a deterministic failure trace of correlated
// bursts: burst i takes down every link incident to nodes[i] at slot
// start + i*period and restores the same links duration slots later.
// Bursts may overlap when duration exceeds period; a link shared by two
// overlapping bursts (incident to both victims) comes back at the first
// burst's restore slot — events apply in slot order and are not
// reference-counted. The trace depends only on (g, nodes, start, period,
// duration).
func CorrelatedTrace(g *graph.Digraph, nodes []int, start, period, duration int) *Trace {
	t := &Trace{}
	for i, node := range nodes {
		down := start + i*period
		t.Events = append(t.Events, NodeLinksDown(g, node, down)...)
		t.Events = append(t.Events, NodeLinksUp(g, node, down+duration)...)
	}
	return t
}
