// Package algo is the unified algorithm registry: one Scheduler-facing
// interface and result pipeline shared by every entry point in the
// repository — cmd/mhsim, cmd/mhsd, internal/experiment, the
// differential harness internal/verify/diff, and the public façade.
//
// Every scheduling algorithm the paper evaluates (the Octopus core
// variants, the baselines and the UB pseudo-algorithm) registers itself
// here under a stable name. Entry points enumerate Registry() instead of
// maintaining their own rosters, so adding an algorithm is a one-file
// change: implement Algorithm, register it in register.go, and the CLIs,
// the experiment runners, and the differential verification suite pick it
// up by construction.
//
// An algorithm is selected by a spec string with a uniform grammar,
//
//	name[:key=value,...]
//
// e.g. "octopus-e:eps64=8" or "octopus-g:ports=2"; see
// ParseSpec for the key set. Running an algorithm yields a uniform *Outcome that
// carries the planned schedule (when one exists), the delivered / hops /
// ψ / reconfiguration metrics every consumer reports, and everything the
// independent validator needs to re-check the run (Outcome.Verify).
package algo

import (
	"fmt"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// Kind classifies how an algorithm produces its result, which determines
// how entry points report it.
type Kind int

const (
	// Offline algorithms plan a configuration schedule for the whole
	// window up front (Octopus family, Eclipse/RotorNet baselines);
	// Outcome.Schedule is always set.
	Offline Kind = iota
	// Bound pseudo-algorithms compute an upper bound on achievable
	// performance rather than a feasible schedule (UB).
	Bound
)

// String returns the lower-case kind name used in listings.
func (k Kind) String() string {
	if k == Bound {
		return "bound"
	}
	return "offline"
}

// Algorithm is one scheduling algorithm under the registry.
type Algorithm interface {
	// Name is the stable registry key (the CLI -algo value).
	Name() string
	// Describe is a one-line human-readable description; the README
	// algorithm table is generated from these strings.
	Describe() string
	// Kind classifies the algorithm's result shape.
	Kind() Kind
	// Run executes the algorithm on the MHS instance (g, load) under p.
	// Implementations must not mutate load (they clone when they need to
	// resolve routes) and must be deterministic given p.Seed/p.Rng.
	Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error)
}

// CorePlanner is implemented by the Octopus core family: algorithms that
// plan through core.Options and can therefore drive pipelines that need a
// core scheduler underneath (the fault-tolerant online replay, rolling
// windows). CoreOptions returns the load the scheduler should plan
// (possibly a resolved clone, e.g. octopus-random pins one route per
// flow) and the fully mapped options.
type CorePlanner interface {
	CoreOptions(load *traffic.Load, p Params) (*traffic.Load, core.Options, error)
}

// IsCore reports whether a is an Octopus-core-family algorithm.
func IsCore(a Algorithm) bool {
	_, ok := a.(CorePlanner)
	return ok
}

// PlanInfo is the scheduler's own bookkeeping of a planned schedule,
// reported separately from the (simulator-)measured outcome metrics.
type PlanInfo struct {
	Iterations int   // greedy iterations used
	Delivered  int   // packets the plan claims delivered
	Hops       int   // packet-hops the plan claims served
	Psi        int64 // planned ψ in traffic.WeightScale units
}

// Outcome is the uniform result of running any registered algorithm: the
// schedule (if one exists), the metrics every consumer reports, and the
// verification recipe for the differential harness.
type Outcome struct {
	// Algo is the registry name of the algorithm that produced this.
	Algo string

	// Fabric and Load are what Schedule is validated against; they may
	// differ from the run's inputs (RotorNet schedules over the complete
	// fabric, Eclipse schedules the one-hop decomposition).
	Fabric *graph.Digraph
	Load   *traffic.Load

	// Schedule is the planned configuration sequence; nil for the
	// schedule-free bound (ub).
	Schedule *schedule.Schedule

	// Plan is the scheduler's own bookkeeping (nil for baselines whose
	// planner internals are not surfaced).
	Plan *PlanInfo

	// Authoritative outcome metrics: measured by the packet-level
	// simulator when Measured is true, otherwise the algorithm's own
	// (verified) bookkeeping or bound.
	Delivered       int
	Total           int
	Hops            int
	Psi             int64 // in traffic.WeightScale units; 0 when not tracked
	ActiveLinkSlots int64 // Σ αₖ·|Mₖ|; utilization denominator
	Reconfigs       int   // configurations planned
	ConfigsReplayed int   // configurations the simulator replayed (0 if unmeasured)
	SlotsUsed       int
	Measured        bool

	// VerifyOpt and Extra are the verification recipe: VerifyOpt carries
	// the window/ports/claim for verify.Schedule, and Extra (optional)
	// checks algorithm-specific invariants beyond schedule validity.
	VerifyOpt verify.Options
	Extra     func() error
}

// claim is the plan's bookkeeping as the claim verify.Schedule holds to
// an independent replay.
func (pi *PlanInfo) claim() *verify.Claim {
	return &verify.Claim{Delivered: pi.Delivered, Hops: pi.Hops, Psi: pi.Psi}
}

// planned fills o from a plan's own bookkeeping: the Plan, and the
// authoritative metrics of an outcome no simulator measured.
func (o *Outcome) planned(res *core.Result) {
	o.Plan = &PlanInfo{
		Iterations: res.Iterations,
		Delivered:  res.Delivered,
		Hops:       res.Hops,
		Psi:        res.Psi,
	}
	o.Delivered = res.Delivered
	o.Total = res.TotalPackets
	o.Hops = res.Hops
	o.Psi = res.Psi
	o.ActiveLinkSlots = res.Schedule.ActiveLinkSlots()
	o.Reconfigs = len(res.Schedule.Configs)
	o.SlotsUsed = res.Schedule.Cost()
}

// measured overwrites o's authoritative metrics with the packet-level
// replay sim.
func (o *Outcome) measured(sim *simulate.Result) {
	o.Delivered = sim.Delivered
	o.Total = sim.TotalPackets
	o.Hops = sim.Hops
	o.Psi = sim.Psi
	o.ActiveLinkSlots = sim.ActiveLinkSlots
	o.ConfigsReplayed = sim.Configs
	o.SlotsUsed = sim.SlotsUsed
	o.Measured = true
}

// DeliveredFraction returns Delivered / Total (0 for empty loads).
func (o *Outcome) DeliveredFraction() float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Delivered) / float64(o.Total)
}

// Utilization returns packet-hops per active link-slot (0 if no link was
// ever active).
func (o *Outcome) Utilization() float64 {
	if o.ActiveLinkSlots == 0 {
		return 0
	}
	return float64(o.Hops) / float64(o.ActiveLinkSlots)
}

// DeliveredOfPsi returns delivered packets as a fraction of ψ in packet
// equivalents (the paper's Fig 7a metric; 0 when ψ is 0).
func (o *Outcome) DeliveredOfPsi() float64 {
	if o.Psi == 0 {
		return 0
	}
	return float64(o.Delivered) * float64(traffic.WeightScale) / float64(o.Psi)
}

// Verify re-checks the outcome independently of the algorithm's own
// bookkeeping. Schedule-producing outcomes go through verify.Schedule
// (matching structure, window budget, route feasibility, and the claimed
// metrics against an independent replay); schedule-free outcomes are held
// to their basic invariants. Extra, when set, runs afterwards in both
// cases. On success it returns the replay report (synthesized from the
// outcome metrics for schedule-free algorithms).
func (o *Outcome) Verify() (*verify.Report, error) {
	var rep *verify.Report
	if o.Schedule != nil {
		r, err := verify.Schedule(o.Fabric, o.Load, o.Schedule, o.VerifyOpt)
		if err != nil {
			return nil, err
		}
		rep = r
	} else {
		if o.Delivered < 0 || o.Total < 0 || o.Hops < 0 || o.Psi < 0 {
			return nil, fmt.Errorf("algo: %s reported negative metrics (delivered %d, total %d, hops %d, psi %d)",
				o.Algo, o.Delivered, o.Total, o.Hops, o.Psi)
		}
		if o.Delivered > o.Total {
			return nil, fmt.Errorf("algo: %s delivered %d of %d offered packets", o.Algo, o.Delivered, o.Total)
		}
		if o.Hops < o.Delivered {
			return nil, fmt.Errorf("algo: %s delivered %d packets over only %d packet-hops", o.Algo, o.Delivered, o.Hops)
		}
		rep = &verify.Report{Delivered: o.Delivered, Hops: o.Hops, Psi: o.Psi, SlotsUsed: o.SlotsUsed}
	}
	if o.Extra != nil {
		if err := o.Extra(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// registry holds the registered algorithms in registration order, which
// register.go keeps canonical (core variants, then baselines, then the
// bound entry).
var registry []Algorithm

// keysOf maps each registered name to the spec keys its algorithm reads.
var keysOf = map[string][]string{}

// Register adds an algorithm to the registry with the spec keys it reads
// (see ParseSpec). It panics on a duplicate or empty name; registration
// happens once, at package init.
func Register(a Algorithm, keys ...string) {
	if a.Name() == "" {
		panic("algo: Register with empty name")
	}
	if _, dup := keysOf[a.Name()]; dup {
		panic(fmt.Sprintf("algo: duplicate registration of %q", a.Name()))
	}
	registry = append(registry, a)
	keysOf[a.Name()] = keys
}

// Registry returns every registered algorithm in deterministic canonical
// order. The returned slice is a copy.
func Registry() []Algorithm {
	return append([]Algorithm(nil), registry...)
}

// Names returns the registered algorithm names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.Name()
	}
	return names
}

// Lookup returns the algorithm registered under name.
func Lookup(name string) (Algorithm, bool) {
	for _, a := range registry {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// CoreNames returns the names of the Octopus-core-family algorithms (the
// ones that can drive core-scheduler pipelines such as -faults).
func CoreNames() []string {
	var names []string
	for _, a := range registry {
		if IsCore(a) {
			names = append(names, a.Name())
		}
	}
	return names
}
