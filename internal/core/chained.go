package core

import (
	"sort"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// This file implements the Theorem 2 variant: when packets may traverse
// multiple hops within one configuration, a matching viewed as a digraph
// has in/out-degree at most 1 and so decomposes into disjoint chains (and
// cycles). The benefit of a configuration then includes packets chaining
// across consecutive links, and the matching is built greedily by adding
// the edge with the largest marginal chained benefit (the paper proves such
// a greedy yields a 1/(2𝒟)-approximate configuration).
//
// The chain benefit evaluator below is an aggregated tandem-queue estimate:
// it honors link capacity (α packets per link), the one-slot switch latency
// (a packet that has already traversed `lag` hops in this configuration can
// cross the next link at most α-lag times), and the weight/flow-ID service
// priority, but not exact slot-level interleaving. The packet-level
// simulator remains the measurement authority (see DESIGN.md).

// chItem is an aggregated packet group flowing through a chain evaluation.
type chItem struct {
	route  traffic.Route
	wlen   int // hop count the packet weight derives from (Flow.WeightLen)
	pos    int // crossing the current link moves route[pos] -> route[pos+1]
	count  int
	lag    int // hops already traversed within this configuration
	flowID int
	bw     int64 // benefit weight for crossing the current link
}

// evalChain estimates the benefit of activating the given chain of links
// (each edge's head is the next edge's tail) for alpha slots.
func (s *Scheduler) evalChain(edges []graph.Edge, alpha int) int64 {
	var total int64
	var carry []chItem
	for idx, e := range edges {
		items := carry[:len(carry):len(carry)]
		if ls := s.tr.state(e); ls != nil {
			for _, ei := range ls.entries {
				en := &s.tr.entries[ei]
				sf := &s.tr.subflows[en.sf]
				if sf.count == 0 || en.backtrack() {
					continue
				}
				f := &s.tr.flows[sf.flow]
				route := f.Routes[sf.routeID]
				items = append(items, chItem{
					route:  route,
					wlen:   f.WeightLen(route),
					pos:    int(sf.pos),
					count:  int(sf.count),
					lag:    0,
					flowID: f.ID,
					bw:     en.bw,
				})
			}
		}
		if len(items) == 0 {
			carry = nil
			continue
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].bw != items[j].bw {
				return items[i].bw > items[j].bw
			}
			if items[i].flowID != items[j].flowID {
				return items[i].flowID < items[j].flowID
			}
			return items[i].lag < items[j].lag
		})
		var next []chItem
		left := alpha
		var nextTo = -1
		if idx+1 < len(edges) {
			nextTo = edges[idx+1].To
		}
		for _, it := range items {
			if left == 0 {
				break
			}
			take := min(left, it.count)
			// Latency cap: a packet lag hops deep can cross this link at
			// most alpha-lag times within the configuration.
			if cap := alpha - it.lag; take > cap {
				take = cap
			}
			if take <= 0 {
				continue
			}
			left -= take
			total += int64(take) * it.bw
			// Does the served group continue over the next chain link?
			newPos := it.pos + 1
			if nextTo >= 0 && newPos < it.route.Hops() && it.route[newPos+1] == nextTo {
				next = append(next, chItem{
					route:  it.route,
					wlen:   it.wlen,
					pos:    newPos,
					count:  take,
					lag:    it.lag + 1,
					flowID: it.flowID,
					bw:     s.tr.hopBW(it.wlen, newPos),
				})
			}
		}
		carry = next
	}
	return total
}

// chainedGreedy builds the configuration matching for one α by repeatedly
// adding the candidate edge with the largest marginal chained benefit.
func (s *Scheduler) chainedGreedy(alpha int) ([]graph.Edge, int64) {
	cands := s.chainCandidates()
	if len(cands) == 0 {
		return nil, 0
	}
	n := s.fabric.N()
	matchOut := make([]int, n)
	matchIn := make([]int, n)
	for i := range matchOut {
		matchOut[i] = -1
		matchIn[i] = -1
	}
	// chainEdges reconstructs the chain containing node v as an ordered
	// edge list by walking to its head and then forward.
	chainEdges := func(v int) []graph.Edge {
		head := v
		for matchIn[head] != -1 {
			prev := matchIn[head]
			if prev == v { // cycle; break at v
				break
			}
			head = prev
		}
		var edges []graph.Edge
		cur := head
		for matchOut[cur] != -1 {
			nxt := matchOut[cur]
			edges = append(edges, graph.Edge{From: cur, To: nxt})
			cur = nxt
			if cur == head { // cycle closed
				break
			}
		}
		return edges
	}
	var links []graph.Edge
	var total int64
	for {
		var bestEdge graph.Edge
		var bestGain int64
		found := false
		for _, e := range cands {
			if matchOut[e.From] != -1 || matchIn[e.To] != -1 {
				continue
			}
			// Benefit of the chains currently containing the endpoints.
			upper := chainEdges(e.From) // chain ending at e.From (if any)
			upperHead := e.From
			if len(upper) > 0 {
				upperHead = upper[0].From
			}
			var before int64
			var merged []graph.Edge
			if upperHead == e.To && len(upper) > 0 {
				// e closes the chain into a cycle; evaluate as the path
				// followed by e (no wrap-around continuation).
				before = s.evalChain(upper, alpha)
				merged = append(append(merged, upper...), e)
			} else {
				lower := chainEdges(e.To) // chain starting at e.To (if any)
				before = s.evalChain(upper, alpha) + s.evalChain(lower, alpha)
				merged = make([]graph.Edge, 0, len(upper)+1+len(lower))
				merged = append(merged, upper...)
				merged = append(merged, e)
				merged = append(merged, lower...)
			}
			gain := s.evalChain(merged, alpha) - before
			if gain > bestGain {
				bestGain, bestEdge, found = gain, e, true
			}
		}
		if !found {
			break
		}
		matchOut[bestEdge.From] = bestEdge.To
		matchIn[bestEdge.To] = bestEdge.From
		links = append(links, bestEdge)
		total += bestGain
	}
	return links, total
}

// chainCandidates returns every fabric link that lies on some remaining
// packet's route at or after its current position: links with queued
// packets plus downstream links that could extend a chain. Sorted for
// determinism.
func (s *Scheduler) chainCandidates() []graph.Edge {
	seen := make(map[graph.Edge]bool)
	for _, sf := range s.tr.subflows {
		if sf.count == 0 || sf.routeID < 0 {
			continue
		}
		route := s.tr.flows[sf.flow].Routes[sf.routeID]
		for k := int(sf.pos); k+1 < len(route); k++ {
			seen[graph.Edge{From: route[k], To: route[k+1]}] = true
		}
	}
	cands := make([]graph.Edge, 0, len(seen))
	for e := range seen {
		cands = append(cands, e)
	}
	sortLinks(cands)
	return cands
}
