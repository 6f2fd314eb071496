package algo

import (
	"sort"

	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// eppState is Eclipse++'s time-expanded graph with its remaining link
// capacities.
type eppState struct {
	g       *graph.Digraph
	configs []schedule.Configuration
	// caps[c][edge] = remaining packets the link may carry in config c.
	caps []map[graph.Edge]int
	// out[c][node] = destination of node's active out-link in config c,
	// or -1 (a matching has at most one out-link per node).
	out [][]int
}

// eclipsePlusPlus routes a multi-hop traffic load over a *given* sequence
// of configurations, in the spirit of the Eclipse++ algorithm of [36]
// (which the paper's Eclipse-Based baseline builds on): packets may take
// any path the configuration sequence admits — not just their nominal
// route — by moving over an active link in one configuration, buffering at
// the intermediate node, and continuing in a later configuration.
//
// The implementation routes flows greedily in the paper's priority order
// (packet weight descending, then flow ID): for each flow it repeatedly
// finds a fewest-hops path in the time-expanded graph (nodes = (network
// node, configuration index), wait edges forward in time, link edges with
// remaining capacity α per configuration) and sends the bottleneck number
// of packets along it, until no augmenting path remains. This is the
// standard greedy multi-commodity routing over a time-expanded graph; the
// reference algorithm's LP rounding is substituted as documented in
// DESIGN.md. Window truncates the replayed sequence like the simulator
// does. The outcome holds the delivered packets, packet-hops and active
// link-slots.
func eclipsePlusPlus(g *graph.Digraph, load *traffic.Load, sch *schedule.Schedule, window int) (*Outcome, error) {
	if err := sch.Validate(g, 0, 1); err != nil {
		return nil, err
	}
	if err := load.Validate(g); err != nil {
		return nil, err
	}
	st := &eppState{g: g}
	used := 0
	for _, cfg := range sch.Configs {
		if window > 0 && used+sch.Delta >= window {
			break
		}
		used += sch.Delta
		alpha := cfg.Alpha
		if window > 0 && used+alpha > window {
			alpha = window - used
		}
		used += alpha
		caps := make(map[graph.Edge]int, len(cfg.Links))
		for _, e := range cfg.Links {
			caps[e] = alpha
		}
		st.configs = append(st.configs, schedule.Configuration{Links: cfg.Links, Alpha: alpha})
		st.caps = append(st.caps, caps)
		out := make([]int, g.N())
		for i := range out {
			out[i] = -1
		}
		for _, e := range cfg.Links {
			out[e.From] = e.To
		}
		st.out = append(st.out, out)
	}

	res := &Outcome{Total: load.TotalPackets()}
	for _, cfg := range st.configs {
		res.ActiveLinkSlots += int64(cfg.Alpha) * int64(len(cfg.Links))
	}

	// Priority order: weight descending, then flow ID ascending.
	order := make([]int, len(load.Flows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := &load.Flows[order[a]], &load.Flows[order[b]]
		wa, wb := fa.Weight(), fb.Weight()
		if wa != wb {
			return wa > wb
		}
		return fa.ID < fb.ID
	})

	for _, idx := range order {
		f := &load.Flows[idx]
		remaining := f.Size
		for remaining > 0 {
			path, bottleneck := st.shortestPath(f.Src, f.Dst, remaining)
			if bottleneck == 0 {
				break
			}
			for _, step := range path {
				st.caps[step.config][step.link] -= bottleneck
				res.Hops += bottleneck
			}
			res.Delivered += bottleneck
			remaining -= bottleneck
		}
	}
	return res, nil
}

// pathStep is one link traversal in a time-expanded path.
type pathStep struct {
	config int
	link   graph.Edge
}

// shortestPath finds an earliest-arrival path from src to dst through the
// time-expanded graph with positive remaining capacity, returning the
// steps and the bottleneck capacity (capped at want). Every transition
// advances the configuration index by one (wait or cross), so BFS order is
// configuration order and a packet crosses at most one link per
// configuration — the same one-hop-per-configuration model measured
// everywhere else.
func (st *eppState) shortestPath(src, dst, want int) ([]pathStep, int) {
	nc := len(st.configs)
	if nc == 0 {
		return nil, 0
	}
	n := st.g.N()
	// state = node*(nc+1) + configIndexReached: the packet sits at node
	// having consumed configs [0, c). BFS over (node, c) with transitions:
	// wait (c -> c+1) and cross a link of config c (node -> to, c -> c+1).
	type prevT struct {
		stateID int
		step    pathStep
		hasStep bool
	}
	total := n * (nc + 1)
	prev := make([]prevT, total)
	visited := make([]bool, total)
	id := func(node, c int) int { return node*(nc+1) + c }
	start := id(src, 0)
	visited[start] = true
	queue := []int{start}
	goal := -1
	for qi := 0; qi < len(queue) && goal < 0; qi++ {
		cur := queue[qi]
		node, c := cur/(nc+1), cur%(nc+1)
		if node == dst {
			goal = cur
			break
		}
		if c == nc {
			continue
		}
		// Wait through configuration c.
		if w := id(node, c+1); !visited[w] {
			visited[w] = true
			prev[w] = prevT{stateID: cur}
			queue = append(queue, w)
		}
		// Cross the node's active link of configuration c, if any.
		if to := st.out[c][node]; to >= 0 {
			e := graph.Edge{From: node, To: to}
			if st.caps[c][e] > 0 {
				if w := id(to, c+1); !visited[w] {
					visited[w] = true
					prev[w] = prevT{stateID: cur, step: pathStep{config: c, link: e}, hasStep: true}
					queue = append(queue, w)
				}
			}
		}
	}
	if goal < 0 {
		return nil, 0
	}
	var path []pathStep
	bottleneck := want
	for cur := goal; cur != start; cur = prev[cur].stateID {
		p := prev[cur]
		if p.hasStep {
			path = append(path, p.step)
			if c := st.caps[p.step.config][p.step.link]; c < bottleneck {
				bottleneck = c
			}
		}
	}
	if len(path) == 0 {
		// src == dst should not happen for valid flows.
		return nil, 0
	}
	reverseSteps(path)
	return path, bottleneck
}

func reverseSteps(s []pathStep) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
