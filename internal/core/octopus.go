// Package core implements the paper's primary contribution: the Octopus
// family of greedy approximation algorithms for the multi-hop scheduling
// (MHS) problem in general circuit-switched networks.
//
// Octopus iteratively picks the configuration (M, α) with the highest
// benefit per unit cost, where the benefit is the maximum total weight of
// packet-hops the configuration can serve given the remaining traffic T^r
// (paper §4), yielding a (1 - 1/e^{1/𝒟})·W/(W+Δ) approximation of the
// weighted packet-hops objective ψ (Theorem 1). Options select the paper's
// variants: Octopus-B (binary search over α), Octopus-G (greedy matching),
// Octopus-e (ε-weighted later hops), multi-hop-per-configuration chaining
// (Theorem 2), K ports per node (§7), and the Octopus+ joint
// routing/scheduling algorithm with direct-link backtracking (§6, Theorem 3).
package core

import (
	"errors"
	"fmt"
	"math"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// Matcher selects the maximum-weight-matching algorithm used to pick each
// configuration.
type Matcher int

const (
	// MatcherExact uses the exact Hungarian matcher (the paper's Octopus).
	MatcherExact Matcher = iota
	// MatcherGreedy uses the linear-time greedy 2-approximate matcher
	// (the paper's Octopus-G).
	MatcherGreedy
)

// AlphaSearch selects how the per-iteration α candidates are explored.
type AlphaSearch int

const (
	// AlphaFull evaluates every candidate α (the paper's Octopus).
	AlphaFull AlphaSearch = iota
	// AlphaBinary ternary-searches the sorted candidates for a local
	// maximum of benefit-per-unit-cost (the paper's Octopus-B), reducing
	// the matchings per iteration to O(log |A|).
	AlphaBinary
)

// Options configures a Scheduler. Window and Delta are required; the zero
// value of every other field selects plain Octopus.
type Options struct {
	Window int // W, the scheduling window in time slots
	Delta  int // Δ, the reconfiguration delay in time slots

	Matcher     Matcher
	AlphaSearch AlphaSearch

	// Epsilon64 enables Octopus-e: the benefit of the hop x hops from the
	// source is weighted by (1 + x·Epsilon64/64). 0 disables the bonus.
	Epsilon64 int

	// MultiHop enables the Theorem 2 variant: the benefit counts packets
	// chaining across consecutive links, the matching built greedily edge by
	// edge. The plan still books one hop a configuration (a lower bound);
	// simulate.Options.MultiHop measures the chains. Requires Ports <= 1.
	MultiHop bool

	// Ports is the input and output ports per node (§7), 0 meaning 1: a
	// configuration is a union of Ports edge-disjoint matchings.
	Ports int

	// MultiRoute enables Octopus+ (§6): flows may carry several candidate
	// routes, the route choice is made at the first hop, and packets may
	// backtrack to a direct source->destination link.
	MultiRoute bool

	// DisableBacktrack turns off Octopus+ backtracking (ablation).
	DisableBacktrack bool

	// KeepTrace records every planned packet movement for Result.VerifyPlan,
	// one record a (configuration, link, subflow) service.
	KeepTrace bool

	// Parallelism is the goroutines evaluating an iteration's α's (§4.1:
	// embarrassingly parallel); 0 uses GOMAXPROCS. The result is the same.
	Parallelism int

	// Obs receives per-iteration metrics and decision-trace events. nil
	// (the default) disables instrumentation at the cost of one nil check
	// per event. Instrumentation is strictly read-only: the planned
	// schedule is bit-identical with Obs set or nil.
	Obs *obs.Observer
}

// Scheduler runs the Octopus greedy loop over a fabric and traffic load.
// Create one with New; each Step plans one configuration, and Run drains
// the loop.
type Scheduler struct {
	fabric *graph.Digraph
	load   *traffic.Load
	opt    Options
	tr     *remaining
	out    schedule.Schedule
	used   int
	iters  int
	done   bool

	// Reusable hot-path state: one scratch per worker (see parallelFor), the
	// α records of an iteration, the g(link, α) table block (forAlphas), the
	// buffers of phase 1's bound and α's and of phase 2's solve set, and the
	// α's and exact solves pruned so far (observability only).
	scratch                  []*evalScratch
	evals                    []alphaEval
	gbuf, bounds             []int64
	caps                     []portCap
	restBuf, selBuf          []int
	prunedAlpha, prunedExact int64

	// Pre-bound observability instruments (all nil when opt.Obs is nil), and
	// the current iteration's candidate-set size, α's evaluated and pruned,
	// and links whose classes the previous one changed.
	ins                                                    coreInstruments
	lastCandidates, lastEvaluated, lastPruned, lastChanged int
}

// Result is a completed Run: the schedule and the plan's bookkeeping, which
// a replay matches exactly for single-route loads and which is authoritative
// for Octopus+ (backtracking revises the plan; check it with VerifyPlan).
type Result struct {
	Schedule     *schedule.Schedule
	Psi          int64 // planned ψ in traffic.WeightScale units
	Hops         int   // planned packet-hops
	Delivered    int   // planned packets delivered
	Pending      int   // packets left undelivered by the plan
	TotalPackets int
	Iterations   int

	trace      []servedRecord
	load       *traffic.Load
	g          *graph.Digraph
	multiRoute bool
}

// ErrWindowTooSmall is returned when the window cannot fit even one
// configuration (W <= Δ).
var ErrWindowTooSmall = errors.New("core: window does not fit a single configuration")

// New returns a Scheduler for the MHS problem instance (g, load) under opt.
func New(g *graph.Digraph, load *traffic.Load, opt Options) (*Scheduler, error) {
	if err := checkOptions(&opt, load); err != nil {
		return nil, err
	}
	if err := load.Validate(g); err != nil {
		return nil, err
	}
	backtrack := opt.MultiRoute && !opt.DisableBacktrack
	return &Scheduler{
		fabric: g,
		load:   load,
		opt:    opt,
		tr:     buildRemaining(g, load, opt.Parallelism, opt.Epsilon64, opt.MultiRoute, backtrack, opt.KeepTrace),
		out:    schedule.Schedule{Delta: opt.Delta, MultiHop: opt.MultiHop, Epsilon64: opt.Epsilon64},
		ins:    bindCoreInstruments(opt.Obs),
	}, nil
}

func checkOptions(opt *Options, load *traffic.Load) error {
	if opt.Window <= 0 {
		return errors.New("core: Window must be positive")
	}
	if opt.Delta < 0 {
		return errors.New("core: Delta must be non-negative")
	}
	if opt.Window <= opt.Delta {
		return ErrWindowTooSmall
	}
	if opt.Ports == 0 {
		opt.Ports = 1
	}
	if opt.Ports < 1 {
		return errors.New("core: Ports must be positive")
	}
	if opt.Epsilon64 < 0 || opt.Epsilon64 > 64*traffic.MaxRouteLen {
		return fmt.Errorf("core: Epsilon64 %d out of range", opt.Epsilon64)
	}
	if opt.MultiRoute && (opt.Ports > 1 || opt.MultiHop) {
		return errors.New("core: MultiRoute cannot be combined with Ports>1 or MultiHop")
	}
	if opt.MultiHop && opt.Ports > 1 {
		return errors.New("core: MultiHop supports only Ports=1")
	}
	dims, err := measure(load, opt.MultiRoute, opt.MultiRoute && !opt.DisableBacktrack)
	if err != nil {
		return err
	}
	if err := dims.checkWidths(); err != nil {
		return err
	}
	// Overflow guard: cross-multiplied benefit/cost comparisons must fit
	// in int64.
	maxBW := float64(traffic.WeightScale) * (1 + float64(dims.maxHops)*float64(opt.Epsilon64)/64)
	if float64(dims.packets)*maxBW >= math.MaxInt64/float64(opt.Window+opt.Delta+1)/2 {
		return errors.New("core: instance too large for exact integer benefit arithmetic")
	}
	return nil
}

// loadDims is what New needs of a load before building T^r: 𝒟 (at least
// 1), the packets, and the most subflows — one a (flow, route in use,
// position short of the destination) — and queue entries — one a subflow
// plus its backtrack entry — the plan can hold. T^r indexes them by int32,
// so New refuses a load past that and nothing can wrap while the plan runs.
type loadDims struct {
	maxHops           int
	packets           int64
	subflows, entries int64
}

func (d loadDims) checkWidths() error {
	if d.subflows > math.MaxInt32 || d.entries > math.MaxInt32 {
		return fmt.Errorf("core: load needs up to %d subflows and %d queue entries, more than the %d a plan can index",
			d.subflows, d.entries, math.MaxInt32)
	}
	return nil
}

// measure takes a load's dimensions in one pass. T^r counts packets in 32
// bits, so a Flow.Size above MaxInt32 is an error (traffic.Store, the stream
// codec and the daemon cap it there already; a JSON Load does not).
func measure(load *traffic.Load, multiRoute, backtrack bool) (loadDims, error) {
	dims := loadDims{maxHops: 1}
	perHop := int64(1) // entries of a subflow past its source
	if backtrack {
		perHop = 2
	}
	for i := range load.Flows {
		f := &load.Flows[i]
		if f.Size > math.MaxInt32 {
			return dims, fmt.Errorf("core: flow %d size %d exceeds %d", f.ID, f.Size, math.MaxInt32)
		}
		dims.packets += int64(f.Size)
		dims.subflows++
		for ri, r := range f.Routes {
			h := r.Hops()
			dims.maxHops = max(dims.maxHops, h)
			if ri > 0 && !multiRoute {
				continue // only the first route is ever used
			}
			dims.entries++
			if h > 1 {
				dims.subflows += int64(h - 1)
				dims.entries += int64(h-1) * perHop
			}
		}
	}
	return dims, nil
}

// Done reports whether the greedy loop has terminated.
func (s *Scheduler) Done() bool { return s.done }

// PendingByFlow returns, for each flow ID with undelivered packets, how
// many of its packets the plan has not delivered. The UB baseline uses this
// to account per-hop service of the one-hop load.
func (s *Scheduler) PendingByFlow() map[int]int {
	m := make(map[int]int)
	for _, sf := range s.tr.subflows {
		if sf.count > 0 {
			m[s.tr.flows[sf.flow].ID] += int(sf.count)
		}
	}
	return m
}

// Step plans one greedy iteration: it selects the configuration with the
// highest benefit per unit cost, applies it to the remaining traffic, and
// returns it. ok is false when the loop has terminated (window exhausted,
// traffic fully served, or no configuration with positive benefit).
func (s *Scheduler) Step() (cfg schedule.Configuration, ok bool, err error) {
	if s.done {
		return schedule.Configuration{}, false, nil
	}
	maxAlpha := s.opt.Window - s.used - s.opt.Delta
	if maxAlpha <= 0 || s.tr.pending == 0 {
		s.done = true
		s.observeDone()
		return schedule.Configuration{}, false, nil
	}
	sp := s.ins.step.Start()
	links, alpha, benefit := s.bestConfiguration(maxAlpha)
	sp.End()
	if benefit <= 0 {
		s.done = true
		s.observeDone()
		return schedule.Configuration{}, false, nil
	}
	psi0, delivered0 := s.tr.psi, s.tr.delivered
	sp = s.ins.apply.Start()
	s.tr.apply(links, alpha)
	sp.End()
	cfg = schedule.Configuration{Links: links, Alpha: alpha}
	s.out.Configs = append(s.out.Configs, cfg)
	s.used += alpha + s.opt.Delta
	s.observeIter(alpha, benefit, len(links), s.tr.psi-psi0, s.tr.delivered-delivered0)
	s.iters++
	return cfg, true, nil
}

// Run drives the greedy loop to completion and returns the planned
// schedule and its bookkeeping.
func (s *Scheduler) Run() (*Result, error) {
	for {
		if _, ok, err := s.Step(); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	out := s.out // copy header; Configs slice is final
	return &Result{
		Schedule:     &out,
		Psi:          s.tr.psi,
		Hops:         s.tr.hops,
		Delivered:    s.tr.delivered,
		Pending:      s.tr.pending,
		TotalPackets: s.load.TotalPackets(),
		Iterations:   s.iters,
		trace:        s.tr.trace,
		load:         s.load,
		g:            s.fabric,
		multiRoute:   s.opt.MultiRoute,
	}, nil
}
