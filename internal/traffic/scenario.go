package traffic

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"octopus/internal/graph"
)

// TraceNames are the names the trace-like loads go by (mhsim -trace),
// indexed by TraceKind: Fig 6's x-axis order.
var TraceNames = []string{"fb-hadoop", "fb-web", "fb-db", "ms"}

// DefaultInterPod is the fraction of pod-synthetic flows that cross pods
// unless a Scenario says otherwise.
const DefaultInterPod = 0.3

// Scenario is the paper's §8 workload vocabulary in one value: mhsim's
// generation flags, the fabric mhsd serves and the instance behind every
// figure. Fabric and then Load, drawing from one rng, build the instance;
// the same Scenario and seed build the same instance wherever they are
// used.
type Scenario struct {
	N      int // nodes
	Window int // W in time slots: scales per-port and trace traffic

	Deg        int     // >0: random partial fabric of this out-degree
	Pods       int     // >0: pod fabric of Pods pods of N/Pods nodes
	InterPod   float64 // pod-synthetic load: fraction of flows crossing pods (0 = none)
	InterLinks int     // pod fabric: links per ordered pod pair (0 = min(4, pod size))

	Trace     string // one of TraceNames; "" = the synthetic load
	Routes    int    // candidate routes per flow (0 or 1 = one)
	FixedHops int    // >0: every route has exactly this many hops

	// Flows is the synthetic n_L + n_S flows per port, split 1:3; Skew is
	// c_S as a percent of per-port traffic. 0 keeps the paper's default
	// (n-scaled flow counts, a 70/30 c_L/c_S split).
	Flows, Skew int

	// Matrix, when non-nil, is a demand matrix: the load is its nonzero
	// entries over a complete fabric of len(Matrix) nodes.
	Matrix [][]float64
}

// check rejects out-of-range values and flag combinations that would
// silently drop a flag. load adds the fields only a load reads, so that a
// bare fabric (mhsd's) needs no Window.
func (s Scenario) check(load bool) error {
	switch {
	case s.Matrix == nil && s.N < 2:
		return fmt.Errorf("-n %d: a fabric needs at least 2 nodes", s.N)
	case s.Deg < 0 || s.InterLinks < 0:
		return errors.New("-deg and -interlinks must not be negative")
	case load && s.Window < 1:
		return fmt.Errorf("-window %d: W must be at least 1 slot", s.Window)
	case load && (s.Skew < 0 || s.Skew > 100):
		return fmt.Errorf("-skew %d is not a percentage in [0, 100]", s.Skew)
	case load && (s.Flows < 0 || s.Routes < 0 || s.FixedHops < 0):
		return errors.New("-flows, -routes and -fixed-hops must not be negative")
	case s.Matrix != nil && (s.Trace != "" || s.Pods > 0 || s.Deg > 0):
		return errors.New("-matrix excludes -trace, -pods and -deg")
	case s.Pods > 0 && s.Deg > 0:
		return errors.New("-pods and -deg are mutually exclusive")
	case (s.Flows > 0 || s.Skew > 0) && (s.Matrix != nil || s.Trace != "" || s.Pods > 0):
		return errors.New("-flows and -skew shape only the synthetic load, not -matrix, -trace or -pods")
	case s.InterLinks > 0 && s.Pods == 0:
		return errors.New("-interlinks shapes only the pod fabric (-pods)")
	case s.InterPod != 0 && (s.Pods == 0 || s.Trace != ""):
		return errors.New("-interpod shapes only the pod-synthetic load (-pods without -trace)")
	case s.Trace != "" && !slices.Contains(TraceNames, s.Trace):
		return fmt.Errorf("unknown trace %q (want one of %v)", s.Trace, TraceNames)
	}
	return nil
}

// Fabric returns the scenario's fabric. Only a partial fabric (Deg > 0)
// draws from rng.
func (s Scenario) Fabric(rng *rand.Rand) (*graph.Digraph, error) {
	if err := s.check(false); err != nil {
		return nil, err
	}
	switch {
	case s.Matrix != nil:
		return graph.Complete(len(s.Matrix)), nil
	case s.Pods > 0:
		p, err := s.podWorkload()
		if err != nil {
			return nil, err
		}
		return p.Fabric(), nil
	case s.Deg > 0:
		return graph.RandomPartial(s.N, s.Deg, rng), nil
	}
	return graph.Complete(s.N), nil
}

// Load draws the scenario's load over g, the fabric Fabric returned: the
// demand matrix, the trace-like load, the pod-synthetic load, or the
// paper's synthetic load, in that order of precedence.
func (s Scenario) Load(g *graph.Digraph, rng *rand.Rand) (*Load, error) {
	if err := s.check(true); err != nil {
		return nil, err
	}
	routes := SyntheticParams{RouteChoices: s.Routes, FixedHops: s.FixedHops, MinHops: 1, MaxHops: 3}
	switch {
	case s.Matrix != nil:
		return FromDemandMatrix(g, s.Matrix, s.Window, routes, rng)
	case s.Trace != "":
		return TraceLike(g, TraceKind(slices.Index(TraceNames, s.Trace)), s.Window, routes, rng)
	case s.Pods > 0:
		p, err := s.podWorkload()
		if err != nil {
			return nil, err
		}
		store, err := PodSynthetic(p, rng)
		if err != nil {
			return nil, err
		}
		return store.Materialize(nil), nil
	}
	p := DefaultSyntheticParams(s.N, s.Window)
	p.RouteChoices, p.FixedHops = s.Routes, s.FixedHops
	if s.Flows > 0 {
		p.NL, p.NS = max(1, s.Flows/4), max(1, s.Flows-s.Flows/4)
	}
	if s.Skew > 0 {
		total := p.CL + p.CS
		p.CS = total * s.Skew / 100
		p.CL = total - p.CS
	}
	return Synthetic(g, p, rng)
}

// Emit hands the scenario's load to emit flow by flow. The pod-synthetic
// load streams straight from the generator without building the fabric or
// the load, so it may be larger than memory; every other load is built
// first.
func (s Scenario) Emit(rng *rand.Rand, emit func(Flow) error) error {
	if err := s.check(true); err != nil {
		return err
	}
	if s.Pods > 0 && s.Trace == "" {
		p, err := s.podWorkload()
		if err != nil {
			return err
		}
		return PodSyntheticEmit(p, rng, emit)
	}
	g, err := s.Fabric(rng)
	if err != nil {
		return err
	}
	load, err := s.Load(g, rng)
	if err != nil {
		return err
	}
	for _, f := range load.Flows {
		if err := emit(f); err != nil {
			return err
		}
	}
	return nil
}

// podWorkload resolves the pod fields into generator parameters.
func (s Scenario) podWorkload() (PodParams, error) {
	podSize, err := graph.PodDims(s.N, s.Pods)
	if err != nil {
		return PodParams{}, err
	}
	p := DefaultPodParams(s.Pods, podSize, s.Window)
	p.InterFrac = s.InterPod
	if s.InterLinks > 0 {
		p.InterLinks = min(s.InterLinks, podSize)
	}
	return p, nil
}
