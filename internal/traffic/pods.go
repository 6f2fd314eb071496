package traffic

import (
	"fmt"
	"math/rand"

	"octopus/internal/graph"
)

// PodParams configures the pod-structured datacenter workload: a fabric of
// graph.Pods(Pods, PodSize, InterLinks) carrying the paper's §8 skewed
// large/small mix per pod, with a controllable fraction of traffic
// crossing pods through the scarce inter-pod circuit links.
type PodParams struct {
	Pods       int // number of pods
	PodSize    int // nodes per pod
	InterLinks int // inter-pod links per ordered pod pair (must match the fabric)

	// LargePerPod/SmallPerPod are the §8 n_L/n_S flow counts per pod;
	// LargeTotal/SmallTotal the c_L/c_S packet budgets per pod, split
	// evenly across that pod's large/small flows.
	LargePerPod, SmallPerPod int
	LargeTotal, SmallTotal   int

	// InterFrac is the fraction of each pod's flows whose destination
	// lives in another pod (routed src -> exit gateway -> entry gateway ->
	// dst over the inter-pod link). 0 keeps every flow pod-local.
	InterFrac float64
}

// Fabric returns the pod fabric these parameters describe.
func (p PodParams) Fabric() *graph.Digraph {
	return graph.Pods(p.Pods, p.PodSize, p.InterLinks)
}

// check validates the parameters.
func (p PodParams) check() error {
	if p.Pods < 1 || p.PodSize < 2 {
		return fmt.Errorf("traffic: pod workload needs >=1 pods of >=2 nodes, got %dx%d", p.Pods, p.PodSize)
	}
	if p.InterLinks < 0 {
		return fmt.Errorf("traffic: negative inter-pod link count %d", p.InterLinks)
	}
	if p.LargePerPod < 0 || p.SmallPerPod < 0 || p.LargePerPod+p.SmallPerPod == 0 {
		return fmt.Errorf("traffic: pod workload needs flows (large=%d small=%d)", p.LargePerPod, p.SmallPerPod)
	}
	if p.InterFrac < 0 || p.InterFrac > 1 {
		return fmt.Errorf("traffic: InterFrac %v out of [0,1]", p.InterFrac)
	}
	if p.Pods > 1 && p.InterFrac > 0 && p.InterLinks < 1 {
		return fmt.Errorf("traffic: inter-pod traffic needs InterLinks >= 1")
	}
	return nil
}

// DefaultPodParams returns §8-flavored defaults for a pods x podSize
// fabric: 4 large and 12 small flows per pod node carrying a 70/30 split
// of window-scaled traffic, 30% of flows crossing pods over 4 parallel
// inter-pod links.
func DefaultPodParams(pods, podSize, window int) PodParams {
	return PodParams{
		Pods:        pods,
		PodSize:     podSize,
		InterLinks:  min(4, podSize),
		LargePerPod: 4 * podSize,
		SmallPerPod: 12 * podSize,
		LargeTotal:  window * 7 / 10 * podSize,
		SmallTotal:  window * 3 / 10 * podSize,
		InterFrac:   DefaultInterPod,
	}
}

// PodSyntheticEmit generates the pod workload flow by flow, calling emit
// for each one — the streaming form, used by mhsim -emit to write loads far
// larger than RAM directly to a flow stream. Generation is deterministic
// in rng. Flow IDs are assigned sequentially from 0.
func PodSyntheticEmit(p PodParams, rng *rand.Rand, emit func(Flow) error) error {
	if err := p.check(); err != nil {
		return err
	}
	nextID := 0
	for pod := 0; pod < p.Pods; pod++ {
		if err := emitPodFlows(p, pod, p.LargePerPod, p.LargeTotal, &nextID, rng, emit); err != nil {
			return err
		}
		if err := emitPodFlows(p, pod, p.SmallPerPod, p.SmallTotal, &nextID, rng, emit); err != nil {
			return err
		}
	}
	return nil
}

// PodSynthetic generates the pod workload as an in-memory columnar store.
func PodSynthetic(p PodParams, rng *rand.Rand) (*Store, error) {
	nodeHint := (p.LargePerPod + p.SmallPerPod) * p.Pods * 2
	s := NewStore((p.LargePerPod+p.SmallPerPod)*p.Pods, nodeHint)
	err := PodSyntheticEmit(p, rng, func(f Flow) error { return s.Append(&f) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// emitPodFlows emits count flows sourced in pod, splitting total packets
// evenly (earlier flows get the remainder), with each flow inter-pod with
// probability InterFrac.
func emitPodFlows(p PodParams, pod, count, total int, nextID *int, rng *rand.Rand, emit func(Flow) error) error {
	base := pod * p.PodSize
	for k := 0; k < count; k++ {
		size := total / count
		if k < total%count {
			size++
		}
		if size == 0 {
			continue
		}
		src := base + rng.Intn(p.PodSize)
		var route Route
		if p.Pods > 1 && rng.Float64() < p.InterFrac {
			dstPod := rng.Intn(p.Pods - 1)
			if dstPod >= pod {
				dstPod++
			}
			link := rng.Intn(p.InterLinks)
			route = interPodRoute(p, src, pod, dstPod, link, rng)
		} else {
			dst := base + rng.Intn(p.PodSize-1)
			if dst >= src {
				dst++
			}
			route = Route{src, dst}
		}
		f := Flow{ID: *nextID, Size: size, Src: route.Src(), Dst: route.Dst(), Routes: []Route{route}}
		*nextID++
		if err := emit(f); err != nil {
			return err
		}
	}
	return nil
}

// interPodRoute builds the gateway route src -> exit -> entry -> dst over
// the link-th inter-pod circuit from pod a to pod b, collapsing hops when
// src or dst already is the gateway. The destination is drawn from pod b
// avoiding the entry gateway (so the route stays a simple path).
func interPodRoute(p PodParams, src, a, b, link int, rng *rand.Rand) Route {
	exit := graph.PodGateway(a, b, link, p.PodSize)
	entry := graph.PodGateway(b, a, link+1, p.PodSize)
	dst := b*p.PodSize + rng.Intn(p.PodSize)
	if dst == entry {
		dst = b*p.PodSize + (dst-b*p.PodSize+1)%p.PodSize
	}
	route := Route{}
	route = append(route, src)
	if exit != src {
		route = append(route, exit)
	}
	route = append(route, entry)
	if dst != entry {
		route = append(route, dst)
	}
	return route
}
