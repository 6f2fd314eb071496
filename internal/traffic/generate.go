package traffic

import (
	"fmt"
	"math/rand"

	"octopus/internal/graph"
)

// SyntheticParams configures the synthetic data-center workload of the
// paper's §8, which follows the Solstice/Eclipse construction: the traffic
// matrix is a sum of NL "large" random permutation matrices carrying CL
// total packets per port and NS "small" ones carrying CS, based on the
// published characteristics of university and DCTCP traces.
type SyntheticParams struct {
	NL, NS int // number of large/small flows per input (and output) port
	CL, CS int // total large/small traffic per port, in packets

	// MinHops/MaxHops bound flow route lengths; flows are spread evenly
	// across the lengths in [MinHops, MaxHops] (the paper uses 1..3 with
	// equal counts). FixedHops > 0 forces every route to that length
	// (Fig 7b's uniform-route-length setting).
	MinHops, MaxHops int
	FixedHops        int

	// RouteChoices is the number of candidate routes per flow; 1 (or 0)
	// yields the single-route MHS setting, larger values the Octopus+
	// joint routing/scheduling setting (Fig 9b uses 10).
	RouteChoices int
}

// DefaultSyntheticParams returns the paper's defaults for an n-node
// network: at n=100, 4 large and 12 small flows per port with a 70/30 split
// of window-sized per-port traffic; the flow counts scale linearly with n.
func DefaultSyntheticParams(n, window int) SyntheticParams {
	return SyntheticParams{
		NL: max(1, 4*n/100), NS: max(1, 12*n/100),
		CL: window * 7 / 10, CS: window * 3 / 10,
		MinHops: 1, MaxHops: 3,
	}
}

// Synthetic generates a synthetic load over fabric g per params p.
func Synthetic(g *graph.Digraph, p SyntheticParams, rng *rand.Rand) (*Load, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 nodes, got %d", n)
	}
	load := &Load{}
	nextID := 0
	add := func(count, total int) error {
		for k := 0; k < count; k++ {
			size := total / count
			if k < total%count {
				size++
			}
			if size == 0 {
				continue
			}
			perm := cyclicPerm(n, rng)
			for src, dst := range perm {
				routes, err := sampleRoutes(g, src, dst, nextID, p, rng)
				if err != nil {
					return err
				}
				load.Flows = append(load.Flows, Flow{
					ID: nextID, Size: size, Src: src, Dst: dst, Routes: routes,
				})
				nextID++
			}
		}
		return nil
	}
	if err := add(p.NL, p.CL); err != nil {
		return nil, err
	}
	if err := add(p.NS, p.CS); err != nil {
		return nil, err
	}
	return load, nil
}

// sampleRoutes draws the candidate route set for one flow.
func sampleRoutes(g *graph.Digraph, src, dst, flowIdx int, p SyntheticParams, rng *rand.Rand) ([]Route, error) {
	choices := max(1, p.RouteChoices)
	hopsFor := func(i int) int {
		if p.FixedHops > 0 {
			return p.FixedHops
		}
		lo := max(1, p.MinHops)
		hi := max(lo, p.MaxHops)
		return lo + (flowIdx+i)%(hi-lo+1)
	}
	var routes []Route
	for i := 0; i < choices; i++ {
		r, ok := RandomRoute(g, src, dst, hopsFor(i), rng)
		if !ok {
			// Fall back to a shortest route; give up only if disconnected.
			r, ok = ShortestRoute(g, src, dst)
			if !ok {
				return nil, fmt.Errorf("%w: %d->%d", ErrNoRoute, src, dst)
			}
		}
		dup := false
		for _, prev := range routes {
			if prev.Equal(r) {
				dup = true
				break
			}
		}
		if !dup {
			routes = append(routes, r)
		}
	}
	return routes, nil
}

// cyclicPerm returns a uniform random cyclic permutation of 0..n-1
// (Sattolo's algorithm), guaranteeing no fixed points so that no flow has
// src == dst.
func cyclicPerm(n int, rng *rand.Rand) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RandomRoute samples a route of exactly the given hop count from src to
// dst in g, trying random intermediate nodes. It reports false if no route
// was found within a bounded number of attempts (or if hops is 1 and the
// direct edge is absent).
func RandomRoute(g *graph.Digraph, src, dst, hops int, rng *rand.Rand) (Route, bool) {
	if hops < 1 || hops > MaxRouteLen || src == dst {
		return nil, false
	}
	if hops == 1 {
		if g.HasEdge(src, dst) {
			return Route{src, dst}, true
		}
		return nil, false
	}
	const tries = 64
attempt:
	for t := 0; t < tries; t++ {
		route := make(Route, 0, hops+1)
		route = append(route, src)
		used := map[int]bool{src: true, dst: true}
		cur := src
		for k := 1; k < hops; k++ {
			// Pick a random out-neighbor not yet used; bias nothing else.
			nbrs := g.Out(cur)
			if len(nbrs) == 0 {
				continue attempt
			}
			off := rng.Intn(len(nbrs))
			next := -1
			for d := 0; d < len(nbrs); d++ {
				cand := nbrs[(off+d)%len(nbrs)]
				if !used[cand] {
					next = cand
					break
				}
			}
			if next < 0 {
				continue attempt
			}
			route = append(route, next)
			used[next] = true
			cur = next
		}
		if g.HasEdge(cur, dst) {
			route = append(route, dst)
			return route, true
		}
	}
	return nil, false
}

// ShortestRoute returns a BFS shortest route from src to dst in g, if one
// exists with at most MaxRouteLen hops.
func ShortestRoute(g *graph.Digraph, src, dst int) (Route, bool) {
	if src == dst {
		return nil, false
	}
	prev := make([]int, g.N())
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	frontier := []int{src}
	for depth := 0; depth < MaxRouteLen && len(frontier) > 0; depth++ {
		var next []int
		for _, u := range frontier {
			for _, v := range g.Out(u) {
				if prev[v] != -1 {
					continue
				}
				prev[v] = u
				if v == dst {
					var route Route
					for x := dst; x != src; x = prev[x] {
						route = append(route, x)
					}
					route = append(route, src)
					for i, j := 0, len(route)-1; i < j; i, j = i+1, j-1 {
						route[i], route[j] = route[j], route[i]
					}
					return route, true
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	return nil, false
}
