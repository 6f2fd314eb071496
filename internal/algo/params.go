package algo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"octopus/internal/core"
	"octopus/internal/obs"
	"octopus/internal/obs/flight"
)

// Params is the shared parameter spec every registered algorithm runs
// under. The generic fields (Window, Delta, Ports, MultiHop, Matcher,
// Seed) apply to every algorithm that uses them; the remaining knobs are
// read only by the algorithms they name, and ParseSpec refuses a spec
// that sets one for any other entry.
type Params struct {
	Window int // W, the scheduling window (or online horizon) in slots
	Delta  int // Δ, the reconfiguration delay in slots
	Ports  int // input/output ports per node (§7); 0 or 1 = single-port

	// MultiHop lets packets chain hops within one configuration (§5),
	// both in planning (core.Options.MultiHop) and in measurement.
	MultiHop bool

	// Matcher selects the matching solver for algorithms that take one
	// (the octopus-g preset overrides it to the greedy matcher).
	Matcher core.Matcher

	// Seed seeds algorithm-internal randomness (octopus-random's route
	// pinning). Rng, when non-nil, overrides Seed so a caller can share
	// one deterministic stream across generation and runs.
	Seed int64
	Rng  *rand.Rand

	// Epsilon64 is the Octopus-e later-hop bonus in 1/64 units; 0 selects
	// the algorithm default (4 for octopus-e, off for plain octopus).
	Epsilon64 int

	// SlotsPerMatching is rotornet's per-matching dwell time; 0 selects
	// the RotorNet default.
	SlotsPerMatching int

	// DisableBacktrack turns off Octopus+ direct-link backtracking
	// (the ext-backtrack ablation).
	DisableBacktrack bool

	// Redundancy, CritFrac and Stretch configure the proactive multipath
	// copies the fault pipeline (mhsim -faults) provisions for a core
	// planner: the top CritFrac fraction of flows (largest first) is
	// provisioned with up to Redundancy pairwise edge-disjoint route
	// copies, alternates capped at Stretch × the primary hop count.
	// Redundancy 0 selects the default 2, Stretch 0 the default 2.0;
	// CritFrac 0 (the default) disables provisioning.
	Redundancy int
	CritFrac   float64
	Stretch    float64

	// Pods partitions the fabric's contiguous node blocks into this many
	// pods for octopus-sharded: pod-local flows are planned per pod in
	// parallel, inter-pod flows by the reconciliation pass. 0 or 1 selects
	// the unsharded identity (bit-identical to plain octopus).
	Pods int

	// KeepTrace makes core planners record every planned movement so the
	// plan can be audited by core.Result.VerifyPlan (used by the
	// differential harness; costs memory).
	KeepTrace bool

	// Parallelism is the worker count of the core planner's per-α
	// evaluation; 0 uses GOMAXPROCS, 1 runs serially. Results are
	// identical at every setting.
	Parallelism int

	// Obs receives metrics and decision-trace events from the layers the
	// algorithm runs (core planning, simulation replay, online epochs).
	// nil disables instrumentation; results are identical either way.
	Obs *obs.Observer

	// Flight receives per-flow lifecycle events from the measurement
	// replay (and, for online drivers, the epoch engine). nil disables
	// recording; results are identical either way. FlightSample is the
	// deterministic flow-ID sampling denominator used when the caller
	// builds the recorder from a spec (`sample=N` or `sample=1/N`;
	// 0 or 1 = exhaustive) — it does not alter an already-built recorder.
	Flight       *flight.Recorder
	FlightSample int
}

// rng returns the parameter RNG: Rng when set, otherwise a fresh stream
// seeded with Seed.
func (p Params) rng() *rand.Rand {
	if p.Rng != nil {
		return p.Rng
	}
	return rand.New(rand.NewSource(p.Seed))
}

// ParseMatcher maps a matcher name onto core.Matcher.
func ParseMatcher(s string) (core.Matcher, error) {
	switch s {
	case "exact":
		return core.MatcherExact, nil
	case "greedy":
		return core.MatcherGreedy, nil
	}
	return 0, fmt.Errorf("unknown matcher %q (want exact or greedy)", s)
}

// ParseSpec resolves an algorithm spec string with the uniform grammar
//
//	name[:key=value,...]
//
// against the registry, overlaying any key=value options onto base. Keys:
// ports, par, pods, eps64, slots, red (integers), sample (N or 1/N),
// crit, stretch (numbers), multihop, backtrack, keeptrace (booleans;
// backtrack=false disables Octopus+ backtracking), and matcher
// (exact|greedy). A key the named algorithm never reads is an error: each
// entry takes the keys it was registered with, every entry takes sample
// (the flight recorder's sampling, applied by whoever builds the recorder)
// and core planners take red, crit and stretch (the copies the fault
// pipeline provisions). The instance — window, Δ, seed — is base's alone:
// every entry point sets it from its own flags.
func ParseSpec(spec string, base Params) (Algorithm, Params, error) {
	name, opts, hasOpts := strings.Cut(spec, ":")
	a, ok := Lookup(name)
	if !ok {
		return nil, base, fmt.Errorf("unknown algorithm %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	p := base
	if !hasOpts {
		return a, p, nil
	}
	reads := append([]string{"sample"}, keysOf[name]...)
	if IsCore(a) {
		reads = append(reads, "crit", "red", "stretch")
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return nil, base, fmt.Errorf("algorithm spec %q: malformed option %q (want key=value)", spec, kv)
		}
		if slices.Contains(specKeys, key) && !slices.Contains(reads, key) {
			slices.Sort(reads)
			return nil, base, fmt.Errorf("algorithm spec %q: %s never reads option %q (it reads: %s)",
				spec, name, key, strings.Join(reads, ", "))
		}
		if err := p.set(key, val); err != nil {
			return nil, base, fmt.Errorf("algorithm spec %q: %w", spec, err)
		}
	}
	return a, p, nil
}

// specKeys names every key ParseSpec accepts, for error messages.
var specKeys = []string{
	"backtrack", "crit", "eps64", "keeptrace", "matcher", "multihop",
	"par", "pods", "ports", "red", "sample", "slots", "stretch",
}

// set applies one key=value option to the params.
func (p *Params) set(key, val string) error {
	parseInt := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("option %s=%q: want an integer", key, val)
		}
		*dst = v
		return nil
	}
	parseBool := func(dst *bool) error {
		v, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("option %s=%q: want a boolean", key, val)
		}
		*dst = v
		return nil
	}
	parseFloat := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("option %s=%q: want a number (finite)", key, val)
		}
		*dst = v
		return nil
	}
	// A count, factor or fraction out of range would silently fall back
	// to a default or the identity; 0 keeps meaning the default.
	count := func(dst *int) error {
		if err := parseInt(dst); err != nil || *dst >= 0 {
			return err
		}
		return fmt.Errorf("option %s=%q: want an integer >= 0", key, val)
	}
	upTo := func(dst *float64, hi float64) error {
		if err := parseFloat(dst); err != nil || *dst >= 0 && *dst <= hi {
			return err
		}
		return fmt.Errorf("option %s=%q: want a number in [0, %g]", key, val, hi)
	}
	switch key {
	case "ports":
		return parseInt(&p.Ports)
	case "par":
		return count(&p.Parallelism)
	case "pods":
		return count(&p.Pods)
	case "eps64":
		return parseInt(&p.Epsilon64)
	case "slots":
		return count(&p.SlotsPerMatching)
	case "red":
		return count(&p.Redundancy)
	case "crit":
		return upTo(&p.CritFrac, 1)
	case "stretch":
		return upTo(&p.Stretch, math.Inf(1))
	case "multihop":
		return parseBool(&p.MultiHop)
	case "keeptrace":
		return parseBool(&p.KeepTrace)
	case "backtrack":
		var backtrack bool
		if err := parseBool(&backtrack); err != nil {
			return err
		}
		p.DisableBacktrack = !backtrack
		return nil
	case "matcher":
		m, err := ParseMatcher(val)
		if err != nil {
			return err
		}
		p.Matcher = m
		return nil
	case "sample":
		// Flight-recorder sampling: one tracked flow in N. Accept both
		// "sample=64" and the spec-sheet form "sample=1/64".
		s := val
		if rest, ok := strings.CutPrefix(s, "1/"); ok {
			s = rest
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return fmt.Errorf("option %s=%q: want N or 1/N with N >= 0", key, val)
		}
		p.FlightSample = v
		return nil
	}
	keys := append([]string(nil), specKeys...)
	sort.Strings(keys)
	return fmt.Errorf("unknown option %q (valid: %s)", key, strings.Join(keys, ", "))
}
