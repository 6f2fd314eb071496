// Package octopus is a production-oriented implementation of the Octopus
// family of multi-hop traffic schedulers for general circuit-switched
// networks, reproducing Gupta, Curran and Zhan, "Near-Optimal Multihop
// Scheduling in General Circuit-Switched Networks" (CoNEXT 2020).
//
// # The problem
//
// A circuit-switched fabric (optical or free-space-optical) connects n
// nodes; at any instant the set of active links must form a matching, and
// switching to a different matching costs a reconfiguration delay Δ. Given
// a multi-hop traffic load and a time window W, the multi-hop scheduling
// (MHS) problem asks for a sequence of configurations (M₁,α₁),(M₂,α₂),…
// with Σ(αₖ+Δ) ≤ W maximizing the number of packets delivered.
//
// # Quick start
//
//	g := octopus.Complete(100)                     // a 100-node crossbar fabric
//	load, _ := octopus.Synthetic(g, octopus.DefaultSyntheticParams(100, 10000), rng)
//	res, _ := octopus.Schedule(g, load, octopus.Options{Window: 10000, Delta: 20})
//	meas, _ := octopus.Measure(g, load, res.Schedule, octopus.SimOptions{})
//	fmt.Printf("delivered %.1f%%\n", 100*meas.DeliveredFraction())
//
// Options select the paper's variants: Octopus-B (binary α search),
// Octopus-G (greedy matching), Octopus-e (ε hop weights), multi-hop
// chaining, K ports per node, and Octopus+ joint routing/scheduling. The
// experiment package regenerates every figure of the paper's evaluation;
// see DESIGN.md and EXPERIMENTS.md.
//
// This package is a thin façade over the implementation packages under
// internal/ so downstream users have a single import.
package octopus

import (
	"math/rand"

	"octopus/internal/algo"
	"octopus/internal/core"
	"octopus/internal/daemon"
	"octopus/internal/engine"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
)

// Fabric and traffic model types.
type (
	// Network is the directed circuit fabric: an edge (i, j) is a potential
	// link from node i's output port to node j's input port.
	Network = graph.Digraph
	// Link is one directed potential link.
	Link = graph.Edge
	// Route is a flow route: the node sequence from source to destination.
	Route = traffic.Route
	// Flow is a traffic flow: Size packets from Src to Dst over one or
	// more candidate Routes.
	Flow = traffic.Flow
	// Load is a traffic load: the set of flows to schedule.
	Load = traffic.Load
	// SyntheticParams configures the synthetic data-center workload
	// generator of the paper's §8.
	SyntheticParams = traffic.SyntheticParams
	// TraceKind selects a trace-like workload generator (FBHadoop, FBWeb,
	// FBDatabase, MSHeatmap).
	TraceKind = traffic.TraceKind
)

// Scheduling types.
type (
	// Options configures the scheduler; see the core package for the
	// variant knobs.
	Options = core.Options
	// Scheduler runs the greedy loop incrementally (Step) or to
	// completion (Run).
	Scheduler = core.Scheduler
	// Result is a completed plan: the schedule plus its bookkeeping.
	Result = core.Result
	// Configuration is one (M, α) network configuration.
	Configuration = schedule.Configuration
	// ConfigSchedule is a sequence of configurations with a
	// reconfiguration delay.
	ConfigSchedule = schedule.Schedule
	// SimOptions configures the packet-level measurement simulator.
	SimOptions = simulate.Options
	// SimResult is the simulator's measurement of a schedule.
	SimResult = simulate.Result
)

// Matcher and α-search selectors (paper variants).
const (
	MatcherExact  = core.MatcherExact
	MatcherGreedy = core.MatcherGreedy
	AlphaFull     = core.AlphaFull
	AlphaBinary   = core.AlphaBinary
)

// Trace kinds for the trace-like generators.
const (
	FBHadoop   = traffic.FBHadoop
	FBWeb      = traffic.FBWeb
	FBDatabase = traffic.FBDatabase
	MSHeatmap  = traffic.MSHeatmap
)

// New returns an empty directed fabric over n nodes.
func New(n int) *Network { return graph.New(n) }

// Complete returns the complete directed fabric over n nodes (a single
// n x n crossbar, the implicit topology of prior one-hop work).
func Complete(n int) *Network { return graph.Complete(n) }

// RandomPartial returns a strongly connected partial fabric with
// approximately deg out-links per node (an FSO-style topology).
func RandomPartial(n, deg int, rng *rand.Rand) *Network {
	return graph.RandomPartial(n, deg, rng)
}

// Torus returns a directed 2D torus fabric over rows*cols nodes.
func Torus(rows, cols int) *Network { return graph.Torus(rows, cols) }

// ChordRing returns a directed ring over n nodes with skip links of the
// given strides (a Chord-like low-diameter partial fabric).
func ChordRing(n int, strides ...int) *Network { return graph.ChordRing(n, strides...) }

// DefaultSyntheticParams returns the paper's §8 workload parameters for an
// n-node network and the given window.
func DefaultSyntheticParams(n, window int) SyntheticParams {
	return traffic.DefaultSyntheticParams(n, window)
}

// Synthetic generates a synthetic data-center load over fabric g.
func Synthetic(g *Network, p SyntheticParams, rng *rand.Rand) (*Load, error) {
	return traffic.Synthetic(g, p, rng)
}

// TraceLike generates a load mimicking the published characteristics of
// the Facebook/Microsoft traces used in the paper's evaluation.
func TraceLike(g *Network, kind TraceKind, window int, rng *rand.Rand) (*Load, error) {
	return traffic.TraceLike(g, kind, window, traffic.SyntheticParams{}, rng)
}

// NewScheduler returns an Octopus scheduler for stepwise use.
func NewScheduler(g *Network, load *Load, opt Options) (*Scheduler, error) {
	return core.New(g, load, opt)
}

// Schedule plans a configuration sequence for the MHS instance (g, load):
// the paper's Octopus algorithm (or a variant selected by opt).
func Schedule(g *Network, load *Load, opt Options) (*Result, error) {
	s, err := core.New(g, load, opt)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Measure replays a schedule in the packet-level simulator and reports
// delivered packets, packet-hops, ψ, and link utilization.
func Measure(g *Network, load *Load, sch *ConfigSchedule, opt SimOptions) (*SimResult, error) {
	return simulate.Run(g, load, sch, opt)
}

// Makespan returns the smallest window that fully serves the load, by
// binary search with Octopus as the feasibility oracle (paper §7).
func Makespan(g *Network, load *Load, opt Options) (int, *Result, error) {
	return algo.Makespan(g, load, opt)
}

// Epoch scheduling: dynamically arriving flows (the §9 future-work
// direction) and the paper's §4 continuous operation are one mechanism —
// plan an epoch on the state as it stands, carry the rest forward.
type (
	// Arrival is a flow plus the slot at which the controller learns of it.
	Arrival = engine.Arrival
	// OnlineResult reports per-epoch statistics, the run's packet totals
	// and per-flow completion.
	OnlineResult = engine.RunResult
)

// ScheduleOnline is the one batch entry point over the epoch engine: it
// schedules the arrivals in epochs of cfg.Core.Window slots, carrying
// undelivered packets (from their current positions) into the next epoch,
// until everything has left the pipeline or maxEpochs epochs have run
// (0 = a safety cap relative to the offered load). A burst offered at slot
// 0 is the paper's rolling-window workflow; cfg.Trace with Repair,
// Reactive and Audit set replays a failure script with epoch-boundary
// repair; cfg.Red layers proactive copies under it (see PipelineConfig).
func ScheduleOnline(g *Network, arrivals []Arrival, cfg PipelineConfig, maxEpochs int) (*OnlineResult, error) {
	return engine.Run(g, arrivals, cfg, maxEpochs)
}

// The algorithm registry: every scheduler, baseline, and bound behind one
// uniform interface (see DESIGN.md §10). The Octopus entry points above
// remain for callers who want the core scheduler's native result type; the
// baselines and UB run only here, through RunAlgorithm.
// The registry is the uniform comparison pipeline the CLIs, experiments,
// and the differential harness run on.
type (
	// Algorithm is one registered algorithm: a name, a one-line
	// description, a kind (offline / bound), and a uniform Run.
	Algorithm = algo.Algorithm
	// AlgoKind classifies an algorithm (offline schedule producer or
	// analytic bound).
	AlgoKind = algo.Kind
	// AlgoParams is the shared parameter set accepted by every registered
	// algorithm; each consumes the fields it understands.
	AlgoParams = algo.Params
	// AlgoOutcome is the uniform, verify-ready result of a registry run.
	AlgoOutcome = algo.Outcome
)

// Algorithms returns every registered algorithm in canonical order.
func Algorithms() []Algorithm { return algo.Registry() }

// AlgorithmNames returns the registered algorithm names in canonical order.
func AlgorithmNames() []string { return algo.Names() }

// LookupAlgorithm finds a registered algorithm by name.
func LookupAlgorithm(name string) (Algorithm, bool) { return algo.Lookup(name) }

// RunAlgorithm parses a "name[:key=value,...]" spec (e.g.
// "octopus-e:eps64=8" or "rotornet:slots=50"), overlays the spec options on
// base, and runs the algorithm on the instance (g, load).
func RunAlgorithm(spec string, g *Network, load *Load, base AlgoParams) (*AlgoOutcome, error) {
	a, p, err := algo.ParseSpec(spec, base)
	if err != nil {
		return nil, err
	}
	return a.Run(g, load, p)
}

// Fault tolerance and proactive multipath redundancy (DESIGN.md §13–14):
// slot-stamped failure traces replayed against the epoch-based online loop,
// reactive repair of broken flows at epoch boundaries, and proactive
// provisioning of critical flows with pairwise edge-disjoint route copies
// whose delivery is deduplicated per copy group.
type (
	// FaultTrace is a deterministic, slot-stamped failure/recovery script.
	FaultTrace = fault.Trace
	// FaultEvent is one failure or recovery event of a trace.
	FaultEvent = fault.Event
	// Redundancy ties the copy flows of an expanded redundant load into
	// groups that count once at delivery.
	Redundancy = traffic.Redundancy
)

// DisjointRoutes extracts up to k pairwise edge-disjoint near-shortest
// routes from src to dst (Bhandari's construction), each at most maxHops
// hops. Deterministic for a fixed fabric; fewer than k routes are returned
// when the fabric cannot support more.
func DisjointRoutes(g *Network, src, dst, k, maxHops int) []Route {
	paths := graph.DisjointRoutes(g, src, dst, k, maxHops)
	routes := make([]Route, len(paths))
	for i, p := range paths {
		routes[i] = Route(p)
	}
	return routes
}

// ProvisionRedundant protects the ⌈crit·n⌉ largest flows of the load with
// up to k−1 pairwise edge-disjoint alternates of their primary routes, each
// at most maxStretch times the primary's hop count, and splits every
// protected flow into one single-route copy flow per route. It returns the
// expanded load and the Redundancy group map the epoch engine deduplicates
// with (PipelineConfig.Red); the input load is never modified.
func ProvisionRedundant(g *Network, load *Load, k int, crit, maxStretch float64) (*Load, *Redundancy) {
	return traffic.Provision(g, load, k, crit, maxStretch)
}

// CorrelatedTrace builds a failure trace of correlated bursts: burst i
// takes down every link incident to nodes[i] at slot start+i*period and
// restores them duration slots later.
func CorrelatedTrace(g *Network, nodes []int, start, period, duration int) *FaultTrace {
	return fault.CorrelatedTrace(g, nodes, start, period, duration)
}

// The stepwise engine and the scheduler daemon behind cmd/mhsd (see
// DESIGN.md §15). ScheduleOnline above is the batch driver over the same
// Pipeline.
type (
	// Pipeline is the mutable epoch state machine: submit and cancel flows
	// at any time, then alternate PlanNext (compute epoch k+1's
	// configuration while epoch k executes) and Commit.
	Pipeline = engine.Pipeline
	// PipelineConfig configures a Pipeline.
	PipelineConfig = engine.Config
	// PipelinePlan is one planned-but-uncommitted epoch.
	PipelinePlan = engine.Plan
	// PipelineTotals is the pipeline's cumulative delivery accounting.
	PipelineTotals = engine.Totals
	// DaemonOptions configures a scheduler daemon Server.
	DaemonOptions = daemon.Options
	// DaemonServer is one long-lived scheduler service: an epoch pipeline
	// driven against wall-clock time plus the HTTP flow-submission API.
	DaemonServer = daemon.Server
)

// NewPipeline builds the stepwise epoch engine over g.
func NewPipeline(g *Network, cfg PipelineConfig) (*Pipeline, error) { return engine.New(g, cfg) }

// NewDaemon builds a scheduler daemon over opt.Fabric; drive it with
// (*DaemonServer).Run on a listener.
func NewDaemon(opt DaemonOptions) (*DaemonServer, error) { return daemon.New(opt) }
