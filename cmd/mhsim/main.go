// Command mhsim runs one multi-hop scheduling scenario end to end:
// generate (or read) a traffic load, plan a schedule with any algorithm of
// the internal/algo registry (one spec grammar for all), replay it in the
// packet-level simulator, and print the outcome.
//
// Usage:
//
//	mhsim -n 100 -window 10000 -delta 20 -algo octopus
//	mhsim -algo octopus-plus -routes 10
//	mhsim -trace fb-web -algo eclipse-based -v
//	mhsim -n 8 -window 200 -save-schedule s.json
//	mhsim -n 8 -window 200 -replay s.json
//	mhsim -algo octopus:red=2,crit=0.5 -faults trace.json -max-epochs 8
//	mhsim -faults trace.json -redundancy -redundancy-out showdown.json
//	mhsim -n 1024 -window 10000 -pods 32 -emit pods.mhsb -format bin
//	mhsim -n 1024 -window 96 -pods 32 -load pods.mhsb -algo octopus-g
//	mhsim -stats pods.mhsb
//	mhsim -fig all -scale full -out results/
//	mhsim -list-algos
//
// The first of -stats, -emit, -fig, -replay, the -redundancy showdown and
// the -faults run whose flags are set runs, else the plain plan. Each reads
// the profiles and the flags of its row of modes; any other flag set is an
// error, as is a spec key nothing reads (red, crit and stretch need
// -faults, sample needs -flight-out). -load reads the load from a file, so
// only the fabric flags (-n -seed -deg -pods -interlinks -matrix) may
// describe it. -emit streams a -pods load, which may be larger than RAM; a
// saved schedule carries its own Δ and service rules; -fig writes the
// paper's §8 tables at quick or full scale (internal/experiment).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"octopus/internal/algo"
	"octopus/internal/buildinfo"
	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/experiment"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/obs/flight"
	"octopus/internal/schedule"
	"octopus/internal/simulate"
	"octopus/internal/strictjson"
	"octopus/internal/traffic"
)

// obsSinks bundles the observability wiring of one mhsim invocation: the
// metrics registry (for -metrics-out) and the decision tracer (for
// -trace-out).
type obsSinks struct {
	observer  *obs.Observer
	reg       *obs.Registry
	tracer    *obs.Tracer
	traceFile *os.File
}

// setup creates the sinks the flags ask for.
func (s *obsSinks) setup(metricsOut, traceOut string) error {
	if metricsOut != "" {
		s.reg = obs.NewRegistry()
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return fmt.Errorf("decision trace: %w", err)
		}
		s.traceFile = f
		s.tracer = obs.NewTracer(f)
	}
	if s.reg != nil || s.tracer != nil {
		s.observer = &obs.Observer{Metrics: s.reg, Trace: s.tracer}
	}
	return nil
}

// finish flushes the sinks after the scenario ran: close the trace file,
// then write the metrics snapshot.
func (s *obsSinks) finish(stderr io.Writer, metricsOut string) error {
	if err := s.tracer.Err(); err != nil {
		return fmt.Errorf("decision trace: %w", err)
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil {
			return fmt.Errorf("decision trace: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %d trace events to %s\n", s.tracer.Events(), s.traceFile.Name())
	}
	if metricsOut != "" {
		if err := strictjson.WriteFile(metricsOut, s.reg.WritePrometheus); err != nil {
			return fmt.Errorf("metrics snapshot: %w", err)
		}
		fmt.Fprintf(stderr, "wrote metrics snapshot to %s\n", metricsOut)
	}
	return nil
}

// emitScheduleTrace records the planned (or replayed) schedule, if any, in
// the decision trace: one "sched" header followed by one "sched.config" per
// configuration carrying its α and link set — enough to rebuild the
// schedule from the trace alone.
func emitScheduleTrace(t *obs.Tracer, sch *schedule.Schedule) {
	if t == nil || sch == nil {
		return
	}
	t.Emit("sched",
		obs.I("delta", int64(sch.Delta)),
		obs.I("configs", int64(len(sch.Configs))))
	for i, cfg := range sch.Configs {
		pairs := make([][2]int, len(cfg.Links))
		for j, e := range cfg.Links {
			pairs[j] = [2]int{e.From, e.To}
		}
		t.Emit("sched.config",
			obs.I("idx", int64(i)),
			obs.I("alpha", int64(cfg.Alpha)),
			obs.Pairs("links", pairs))
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "mhsim: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: it parses args with its
// own FlagSet and writes only to the given writers.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mhsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 24, "number of network nodes (with -fig: override the scale's network size)")
		window     = fs.Int("window", 1000, "window W in time slots (with -fig: override W)")
		delta      = fs.Int("delta", 20, "reconfiguration delay Δ in time slots (with -fig: override Δ)")
		algoSpec   = fs.String("algo", "octopus", "algorithm spec name[:key=value,...]; names: "+strings.Join(algo.Names(), ", "))
		seed       = fs.Int64("seed", 1, "RNG seed (with -fig: override the base seed)")
		trace      = fs.String("trace", "", "trace-like load: "+strings.Join(traffic.TraceNames, ", ")+" (default: synthetic)")
		loadPath   = fs.String("load", "", "read the traffic load from a file (JSON document, JSONL or binary flow stream) instead of generating")
		routes     = fs.Int("routes", 1, "candidate routes per flow (for octopus-plus / octopus-random)")
		fixedHops  = fs.Int("fixed-hops", 0, "force every route to this many hops")
		ports      = fs.Int("ports", 1, "input/output ports per node")
		deg        = fs.Int("deg", 0, "partial fabric with this out-degree per node (0 = complete)")
		podsFabric = fs.Int("pods", 0, "pod-structured fabric with this many pods of n/pods nodes (pairs with octopus-sharded:pods=...); without -trace, the pod-synthetic load")
		interpod   = fs.Float64("interpod", traffic.DefaultInterPod, "fraction of pod-synthetic flows crossing pods")
		interlinks = fs.Int("interlinks", 0, "links per ordered pod pair (0 = min(4, pod size))")
		flows      = fs.Int("flows", 0, "synthetic flows per port, 1:3 large:small (0 = the paper's n-scaled count)")
		skew       = fs.Int("skew", 0, "synthetic c_S as a percent of per-port traffic (0 = the paper's 30)")
		matrix     = fs.String("matrix", "", "the load of a CSV demand matrix over a complete fabric")
		emitPath   = fs.String("emit", "", "write the load to this file ('-' for stdout) and exit")
		format     = fs.String("format", "json", "-emit encoding: json (classic document), jsonl or bin (flow streams)")
		statsPath  = fs.String("stats", "", "print statistics of a load file (any encoding) and exit")
		fig        = fs.String("fig", "", "regenerate the paper's §8 tables and exit: figure IDs ("+strings.Join(experiment.FigureIDs(), ", ")+"), extension IDs ("+strings.Join(experiment.ExtensionIDs(), ", ")+"), comma-separated, or 'all' or 'ext'")
		outDir     = fs.String("out", "", "-fig: directory to write per-figure CSV files (optional)")
		verbose    = fs.Bool("v", false, "print the configuration sequence")
		gantt      = fs.Bool("gantt", false, "print the schedule as an ASCII Gantt chart")
		saveSched  = fs.String("save-schedule", "", "write the planned schedule to a JSON file")
		replay     = fs.String("replay", "", "skip planning: replay a schedule JSON file over the load")
		faultsPath = fs.String("faults", "", "inject a link/node failure trace from a JSON file (see internal/fault)")
		redundancy = fs.Bool("redundancy", false, "with -faults: run the proactive-vs-reactive showdown (none, reactive, proactive, both) instead of a single degraded run; copies protect half the flows unless the spec sets crit")
		redOut     = fs.String("redundancy-out", "", "with -redundancy: also write the showdown results as JSON to this file ('-' for stdout)")
		maxEpochs  = fs.Int("max-epochs", 0, "with -faults: cap the online run at this many epochs (0 = run until drained)")
		listAlgos  = fs.Bool("list-algos", false, "print the algorithm registry (name, kind, description; tab-separated) and exit")
		metricsOut = fs.String("metrics-out", "", "write a Prometheus-text metrics snapshot to this file at exit")
		traceOut   = fs.String("trace-out", "", "write the JSONL decision trace to this file")
		flightOut  = fs.String("flight-out", "", "write the per-flow lifecycle journal (flight recorder) as JSONL to this file (the spec key sample=N tracks one flow in N)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile at exit to this file")
		version    = fs.Bool("version", false, "print the version and exit")
	)
	// The rest of -fig's flags; figScale reads them off the FlagSet.
	fs.String("scale", "quick", "-fig experiment scale: quick or full")
	fs.Int("instances", 0, "-fig: override instances per point")
	fs.Int("workers", 0, "-fig: override parallel instances")
	fs.String("matcher", "", "-fig: override matcher: exact or greedy")
	fs.String("node-sweep", "", "-fig: override Fig4a/5a node sweep (comma-separated)")
	fs.String("delta-sweep", "", "-fig: override reconfiguration-delay sweep (comma-separated)")
	fs.String("time-nodes", "", "-fig: override Fig10 network-size sweep (comma-separated)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *version {
		buildinfo.Print(stdout, "mhsim")
		return nil
	}
	if *listAlgos {
		// Name, kind and description, tab-separated, in registry order:
		// the README algorithm table is generated from this output.
		for _, a := range algo.Registry() {
			fmt.Fprintf(stdout, "%s\t%s\t%s\n", a.Name(), a.Kind(), a.Describe())
		}
		return nil
	}
	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	defer func() {
		if err == nil && *memProf != "" {
			runtime.GC()
			err = strictjson.WriteFile(*memProf, pprof.WriteHeapProfile)
		}
	}()
	mode, err := checkMode(fs)
	if err != nil {
		return err
	}
	if mode == "stats" {
		return printStats(stdout, *statsPath)
	}
	if mode == "fig" {
		sc, err := figScale(fs)
		if err != nil {
			return err
		}
		return runFigures(stdout, stderr, *fig, *outDir, sc)
	}

	// -interpod shapes only the pod-synthetic load; Scenario refuses it
	// beside any other load.
	sc := traffic.Scenario{
		N: *n, Window: *window, Deg: *deg, Pods: *podsFabric, InterLinks: *interlinks,
		Trace: *trace, Routes: *routes, FixedHops: *fixedHops, Flows: *flows, Skew: *skew,
	}
	if isSet(fs, "interpod") || sc.Pods > 0 && sc.Trace == "" {
		sc.InterPod = *interpod
	}
	if *matrix != "" {
		if sc.Matrix, err = strictjson.ReadFile(*matrix, traffic.ReadDemandCSV); err != nil {
			return fmt.Errorf("demand matrix %s: %w", *matrix, err)
		}
	}
	if mode == "emit" {
		return emitLoad(sc, rand.New(rand.NewSource(*seed)), *emitPath, *format, stdout, stderr)
	}

	// Resolve the algorithm spec and reject unsupported flag combinations
	// before any generation or planning work.
	a, params, err := algo.ParseSpec(*algoSpec, algo.Params{Window: *window, Delta: *delta, Ports: *ports})
	if err != nil {
		return err
	}
	wantSchedule := *verbose || *gantt || *saveSched != ""
	if wantSchedule && a.Kind() != algo.Offline {
		return fmt.Errorf("algorithm %q is %s and produces no schedule; -v, -gantt, and -save-schedule need an offline algorithm",
			a.Name(), a.Kind())
	}
	planner, isCore := a.(algo.CorePlanner)
	if *faultsPath != "" && !isCore {
		return fmt.Errorf("algorithm %q does not support -faults (use one of: %s)",
			a.Name(), strings.Join(algo.CoreNames(), ", "))
	}
	// Spec keys follow the flags' rule: a key no part of the run reads is
	// refused.
	if (params.Redundancy != 0 || params.CritFrac != 0 || params.Stretch != 0) && *faultsPath == "" {
		return fmt.Errorf("algorithm spec %q: red, crit and stretch need -faults: only the fault pipeline provisions copies", *algoSpec)
	}
	if params.FlightSample != 0 && *flightOut == "" {
		return fmt.Errorf("algorithm spec %q: sample needs -flight-out: only the flight recorder samples flows", *algoSpec)
	}

	// One rng, drawn in order: a partial fabric, then the load, then
	// whatever the algorithm draws (octopus-random's route picks).
	rng := rand.New(rand.NewSource(*seed))
	params.Rng = rng
	g, err := sc.Fabric(rng)
	if err != nil {
		return err
	}
	faults, err := loadFaults(*faultsPath, g)
	if err != nil {
		return err
	}
	var load *traffic.Load
	if *loadPath != "" {
		load, err = readLoad(*loadPath, g)
	} else {
		load, err = sc.Load(g, rng)
	}
	if err != nil {
		return err
	}
	// The sinks open once the instance is built: a refused run writes none.
	var sinks obsSinks
	if err := sinks.setup(*metricsOut, *traceOut); err != nil {
		return err
	}
	params.Obs = sinks.observer
	var flightRec *flight.Recorder
	if *flightOut != "" {
		// Its SLO mirrors land in the -metrics-out snapshot (when there is
		// one); offline, its "epochs" are simulator slot numbers.
		flightRec = flight.New(flight.Config{Sample: params.FlightSample, Metrics: sinks.reg})
		params.Flight = flightRec
	}
	fmt.Fprintf(stdout, "fabric: %d nodes, %d links; load: %d flows, %d packets, max %d hops\n",
		g.N(), g.M(), len(load.Flows), load.TotalPackets(), load.MaxHops())
	if faults != nil {
		fmt.Fprintf(stdout, "faults: %d events, delta jitter on %d reconfigurations\n",
			len(faults.Events), len(faults.DeltaJitter))
	}

	// The run sits behind a closure so that each of its paths ends by
	// writing the flight journal and flushing the sinks.
	scenario := func() error {
		if mode == "replay" {
			sch, err := loadSchedule(*replay, g, *ports)
			if err != nil {
				return err
			}
			emitScheduleTrace(sinks.tracer, sch)
			flight.AdmitLoad(flightRec, load, 0)
			sim, err := simulate.Run(g, load, sch, simulate.Options{
				Window: *window, MultiHop: sch.MultiHop, Ports: *ports, Epsilon64: sch.Epsilon64,
				Faults: faults, Obs: sinks.observer, Flight: flightRec,
			})
			if err != nil {
				return err
			}
			report(stdout, sim.Delivered, sim.TotalPackets, sim.DeliveredFraction(),
				sim.Hops, sim.Utilization(), sim.Configs, len(sch.Configs))
			if faults != nil {
				fmt.Fprintf(stdout, "faults: %d active link-slots lost, %d packets stranded in-network\n",
					sim.FailedLinkSlots, sim.Stranded)
			}
			return nil
		}

		if faults != nil {
			runLoad, opt, err := planner.CoreOptions(load, params)
			if err != nil {
				return err
			}
			if *redundancy {
				return runShowdown(stdout, g, runLoad, faults, opt, params, *maxEpochs, *redOut)
			}
			return runFaulty(stdout, g, runLoad, faults, opt, params, *maxEpochs)
		}

		flight.AdmitLoad(flightRec, load, 0)
		out, err := a.Run(g, load, params)
		if err != nil {
			return err
		}
		emitScheduleTrace(sinks.tracer, out.Schedule)
		if *saveSched != "" {
			if err := replayable(out, g, load, *ports); err != nil {
				return fmt.Errorf("-save-schedule: %w", err)
			}
			if err := out.Schedule.SaveFile(*saveSched); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote schedule to %s\n", *saveSched)
		}
		if *verbose {
			for i, cfg := range out.Schedule.Configs {
				fmt.Fprintf(stdout, "  config %3d: %s\n", i, cfg)
			}
		}
		if *gantt {
			if err := out.Schedule.WriteGantt(stdout, g.N()); err != nil {
				return err
			}
		}

		switch a.Kind() {
		case algo.Bound:
			fmt.Fprintf(stdout, "%s: delivered %d/%d (%.2f%%), utilization %.2f%%\n",
				strings.ToUpper(out.Algo), out.Delivered, out.Total, 100*out.DeliveredFraction(), 100*out.Utilization())
		default:
			if out.Plan != nil {
				fmt.Fprintf(stdout, "plan: %d configurations, cost %d/%d slots, %d iterations\n",
					len(out.Schedule.Configs), out.Schedule.Cost(), *window, out.Plan.Iterations)
			}
			if out.Measured {
				report(stdout, out.Delivered, out.Total, out.DeliveredFraction(),
					out.Hops, out.Utilization(), out.ConfigsReplayed, out.Reconfigs)
			} else {
				// Plans whose bookkeeping is authoritative (Octopus+,
				// eclipse-pp) are reported from it.
				fmt.Fprintf(stdout, "plan bookkeeping: delivered %d/%d (%.2f%%), %d packet-hops\n",
					out.Delivered, out.Total, 100*out.DeliveredFraction(), out.Hops)
			}
		}
		return nil
	}
	if err := scenario(); err != nil {
		return err
	}
	if flightRec != nil {
		if err := strictjson.WriteFile(*flightOut, flightRec.WriteLog); err != nil {
			return fmt.Errorf("flight journal: %w", err)
		}
		snap := flightRec.Stats()
		fmt.Fprintf(stderr, "wrote %d flight events (%d retained, %d flows tracked) to %s\n",
			snap.Events, snap.Retained, snap.TrackedFlows, *flightOut)
	}
	return sinks.finish(stderr, *metricsOut)
}

// loadFaults reads and validates a failure trace against the fabric; an
// empty path yields a nil trace (failure-free run).
func loadFaults(path string, g *graph.Digraph) (*fault.Trace, error) {
	if path == "" {
		return nil, nil
	}
	tr, err := fault.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault trace %s: %w", path, err)
	}
	if err := tr.Validate(g); err != nil {
		return nil, fmt.Errorf("fault trace %s does not fit the selected fabric: %w", path, err)
	}
	return tr, nil
}

// replayable reports why -replay over the instance (g, load, ports) would
// not measure what out measured: the file holds only the schedule.
func replayable(out *algo.Outcome, g *graph.Digraph, load *traffic.Load, ports int) error {
	if !out.Measured {
		return fmt.Errorf("%s is measured by its own plan bookkeeping, and the routing behind it is not in the schedule file", out.Algo)
	}
	for i := range load.Flows {
		if got := out.Load.Flows[i].Routes[0]; !slices.Equal(got, load.Flows[i].Routes[0]) {
			return fmt.Errorf("%s planned flow %d over route %v, not its first, and route choices are not in the schedule file", out.Algo, load.Flows[i].ID, got)
		}
	}
	if err := out.Schedule.Validate(g, 0, ports); err != nil {
		return fmt.Errorf("%s's schedule does not fit the fabric a replay reads: %w", out.Algo, err)
	}
	return nil
}

// loadSchedule reads a replay schedule and validates it against the fabric
// before any simulation work, so hostile or mismatched JSON fails with a
// clear error rather than a panic deep in the replay.
func loadSchedule(path string, g *graph.Digraph, ports int) (*schedule.Schedule, error) {
	sch, err := schedule.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("replay schedule %s: %w", path, err)
	}
	if err := sch.Validate(g, 0, ports); err != nil {
		return nil, fmt.Errorf("replay schedule %s does not fit the selected fabric: %w", path, err)
	}
	return sch, nil
}

// runFaulty drives the fault-tolerant online pipeline and prints the
// per-epoch degradation report beside a failure-free reference run of the
// same arrivals. When the algorithm spec asks for redundancy (crit > 0),
// the load is expanded into proactive copies first and the run layers
// redundancy under the reactive repair.
func runFaulty(stdout io.Writer, g *graph.Digraph, load *traffic.Load, faults *fault.Trace, opt core.Options, params algo.Params, maxEpochs int) error {
	expanded, red := algo.ProvisionRedundant(g, load, params)
	if !red.Empty() {
		k, crit, stretch := algo.RedundancyKnobs(params)
		fmt.Fprintf(stdout, "redundancy: k=%d crit=%.2f stretch=%.1f; %d flows expanded to %d copy flows (%d -> %d packets)\n",
			k, crit, stretch, len(load.Flows), len(expanded.Flows),
			load.TotalPackets(), expanded.TotalPackets())
		load = expanded
	}
	// Everything is offered at slot 0, replayed against the trace with
	// epoch-boundary repair and every plan audited.
	arrivals := make([]engine.Arrival, len(load.Flows))
	for i, f := range load.Flows {
		arrivals[i] = engine.Arrival{Flow: f}
	}
	res, err := engine.Run(g, arrivals, engine.Config{
		Core: opt, Trace: faults, Repair: true, Reactive: true, Red: red, Audit: true, Flight: params.Flight,
	}, maxEpochs)
	if err != nil {
		return err
	}
	// The reference is a baseline, not part of the observed run: it gets
	// neither the observer nor the flight recorder.
	opt.Obs = nil
	ref, err := engine.Run(g, arrivals, engine.Config{Core: opt}, maxEpochs)
	if err != nil {
		return fmt.Errorf("failure-free reference run: %w", err)
	}
	for i, ep := range res.Epochs {
		refDelivered := 0
		if i < len(ref.Epochs) {
			refDelivered = ref.Epochs[i].Delivered
		}
		fmt.Fprintf(stdout, "epoch %3d: %d links, %d nodes down | offered %d delivered %d backlog %d | rerouted %d stranded %d dropped %d | reference %d",
			ep.Epoch, ep.FailedLinks, ep.FailedNodes,
			ep.Offered, ep.Delivered, ep.Backlog,
			ep.Rerouted, ep.Stranded, ep.Dropped, refDelivered)
		if !red.Empty() {
			fmt.Fprintf(stdout, " | survived %d unique %d", ep.SurvivedRedundant, ep.UniqueDelivered)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "degraded: delivered %d/%d (%.2f%%), dropped %d unreachable\n",
		res.Delivered, res.Submitted, 100*res.DeliveredFraction(), res.Dropped)
	if !red.Empty() {
		fmt.Fprintf(stdout, "redundant: unique delivered %d/%d (%.2f%%), %d packets survived via copies\n",
			res.UniqueDelivered, res.UniqueSubmitted, 100*res.UniqueDeliveredFraction(), res.SurvivedRedundant)
	}
	fmt.Fprintf(stdout, "reference: delivered %d/%d failure-free; degradation %.2f%%\n",
		ref.Delivered, ref.Submitted, 100*res.Degradation(ref))
	return nil
}

// showdownArm is one protection arm of the -redundancy showdown, as
// printed and as serialized by -redundancy-out.
type showdownArm struct {
	Arm               string  `json:"arm"`
	Delivered         int     `json:"delivered"`
	Total             int     `json:"total"`
	UniqueDelivered   int     `json:"unique_delivered"`
	UniqueTotal       int     `json:"unique_total"`
	UniqueFraction    float64 `json:"unique_fraction"`
	Dropped           int     `json:"dropped"`
	SurvivedRedundant int     `json:"survived_redundant"`
	Psi               int64   `json:"psi"`
	Epochs            int     `json:"epochs"`
}

// showdownReport is the -redundancy-out JSON document.
type showdownReport struct {
	Redundancy  int           `json:"redundancy"`
	CritFrac    float64       `json:"crit_frac"`
	Stretch     float64       `json:"stretch"`
	Arms        []showdownArm `json:"arms"`
	PsiOverhead float64       `json:"psi_overhead"` // psi(both) / psi(reactive)
}

// runShowdown replays the same load and failure trace under the four
// protection arms — no protection, reactive repair only, proactive
// k-disjoint copies only, and both — and reports the deduplicated delivery
// of each plus the ψ overhead proactive protection costs. With no explicit
// crit knob in the algorithm spec, half the flows are protected.
func runShowdown(stdout io.Writer, g *graph.Digraph, load *traffic.Load, faults *fault.Trace, opt core.Options, params algo.Params, maxEpochs int, outPath string) error {
	if params.CritFrac <= 0 {
		params.CritFrac = 0.5
	}
	k, crit, stretch := algo.RedundancyKnobs(params)
	expanded, red := algo.ProvisionRedundant(g, load, params)
	results, err := engine.Showdown(g, load, expanded, red, engine.Config{Core: opt, Trace: faults}, maxEpochs)
	if err != nil {
		return err
	}
	rep := showdownReport{Redundancy: k, CritFrac: crit, Stretch: stretch}
	for i, res := range results {
		rep.Arms = append(rep.Arms, showdownArm{
			Arm:               [...]string{"none", "reactive", "proactive", "both"}[i],
			Delivered:         res.Delivered,
			Total:             res.Submitted,
			UniqueDelivered:   res.UniqueDelivered,
			UniqueTotal:       res.UniqueSubmitted,
			UniqueFraction:    res.UniqueDeliveredFraction(),
			Dropped:           res.Dropped,
			SurvivedRedundant: res.SurvivedRedundant,
			Psi:               res.Psi,
			Epochs:            len(res.Epochs),
		})
	}
	rep.PsiOverhead = 1
	if reactive, both := rep.Arms[1], rep.Arms[3]; reactive.Psi > 0 {
		rep.PsiOverhead = float64(both.Psi) / float64(reactive.Psi)
	}
	fmt.Fprintf(stdout, "showdown: k=%d crit=%.2f stretch=%.1f; %d flows, %d with copies (%d -> %d packets)\n",
		k, crit, stretch, len(load.Flows), len(red.Members()),
		load.TotalPackets(), expanded.TotalPackets())
	fmt.Fprintf(stdout, "%-10s %10s %14s %8s %9s %12s\n",
		"arm", "delivered", "unique", "dropped", "survived", "psi")
	for _, a := range rep.Arms {
		fmt.Fprintf(stdout, "%-10s %4d/%5d %6d/%5d %s %8d %9d %12d\n",
			a.Arm, a.Delivered, a.Total, a.UniqueDelivered, a.UniqueTotal,
			fmt.Sprintf("(%6.2f%%)", 100*a.UniqueFraction), a.Dropped, a.SurvivedRedundant, a.Psi)
	}
	fmt.Fprintf(stdout, "psi overhead of proactive copies (both / reactive): %.2fx\n", rep.PsiOverhead)
	if outPath == "" {
		return nil
	}
	return writeOut(outPath, stdout, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(&rep)
	})
}

// The fabric flags build the fabric, the load flags the load a run draws
// over it; -load reads the load from a file instead, so a run that reads
// -load reads no load flag beside it.
var (
	fabricFlags   = strings.Fields("n seed deg pods interlinks matrix")
	loadFlags     = strings.Fields("trace routes fixed-hops flows skew interpod")
	instanceFlags = slices.Concat(fabricFlags, loadFlags, strings.Fields("window load ports"))
)

// A mode is one of mhsim's runs: the flags that turn it on and the flags
// it reads beside them.
type mode struct{ on, reads []string }

// modes are mhsim's runs in order of precedence: the first whose flags in
// on all hold a value (neither empty nor false) runs, and reads those, the
// flags in reads and the profiles. The plain plan, last, runs by default.
var modes = []mode{
	{[]string{"stats"}, nil},
	{[]string{"emit"}, slices.Concat(fabricFlags, loadFlags, []string{"window", "format"})},
	{[]string{"fig"}, strings.Fields("n window delta seed scale out instances workers matcher node-sweep delta-sweep time-nodes")},
	{[]string{"replay"}, slices.Concat(instanceFlags, strings.Fields("faults metrics-out trace-out flight-out"))},
	// No arm of the showdown is recorded, so it reads no -flight-out.
	{[]string{"redundancy", "faults"}, slices.Concat(instanceFlags, strings.Fields("delta algo max-epochs redundancy-out metrics-out trace-out"))},
	{[]string{"faults"}, slices.Concat(instanceFlags, strings.Fields("delta algo max-epochs metrics-out trace-out flight-out"))},
	{nil, slices.Concat(instanceFlags, strings.Fields("delta algo v gantt save-schedule metrics-out trace-out flight-out"))},
}

// checkMode returns the flags that turn the selected run on ("" for the
// plain plan), refusing any flag set on the command line that the run would
// ignore: a run that is on names what it ignores, the plain plan names the
// run that would read the flag.
func checkMode(fs *flag.FlagSet) (string, error) {
	on := func(name string) bool { return !slices.Contains([]string{"", "false"}, fs.Lookup(name).Value.String()) }
	m := modes[slices.IndexFunc(modes, func(m mode) bool { return !slices.ContainsFunc(m.on, func(s string) bool { return !on(s) }) })]
	reads := slices.Concat(m.on, m.reads, []string{"cpuprofile", "memprofile"})
	var dropped, loadDropped []string
	fs.Visit(func(f *flag.Flag) {
		switch {
		case !slices.Contains(reads, f.Name):
			dropped = append(dropped, "-"+f.Name)
		case on("load") && slices.Contains(loadFlags, f.Name):
			loadDropped = append(loadDropped, "-"+f.Name)
		}
	})
	switch {
	case dropped != nil && m.on != nil:
		return "", fmt.Errorf("-%s would ignore %s", m.on[0], strings.Join(dropped, " "))
	case dropped != nil:
		// The last run that reads the flag needs the fewest flags more.
		var needs []string
		for _, r := range modes {
			if slices.Contains(slices.Concat(r.on, r.reads), dropped[0][1:]) {
				needs = slices.DeleteFunc(slices.Clone(r.on), on)
			}
		}
		if slices.Contains(needs, dropped[0][1:]) { // set, but to "" or false: the run's own switch
			return "", fmt.Errorf("%s needs a value", dropped[0])
		}
		return "", fmt.Errorf("%s needs -%s", dropped[0], strings.Join(needs, " -"))
	case loadDropped != nil:
		return "", fmt.Errorf("-load would ignore %s", strings.Join(loadDropped, " "))
	}
	return strings.Join(m.on, " "), nil
}

// isSet reports whether the flag was set on the command line.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// figScale is the -scale profile with every override set on the command
// line applied. A value out of range is refused, never ignored.
func figScale(fs *flag.FlagSet) (experiment.Scale, error) {
	var sc experiment.Scale
	switch name := fs.Lookup("scale").Value.String(); name {
	case "quick":
		sc = experiment.Quick()
	case "full":
		sc = experiment.Full()
	default:
		return sc, fmt.Errorf("unknown scale %q (want quick or full)", name)
	}
	ints := map[string]*int{"n": &sc.Nodes, "window": &sc.Window, "delta": &sc.Delta, "instances": &sc.Instances, "workers": &sc.Workers}
	sweeps := map[string]*[]int{"node-sweep": &sc.NodeSweep, "delta-sweep": &sc.DeltaSweep, "time-nodes": &sc.TimeNodeSweep}
	var err error
	fs.Visit(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		switch {
		case err != nil:
		case ints[f.Name] != nil:
			least := 1
			if f.Name == "delta" {
				least = 0
			}
			if v.(int) < least {
				err = fmt.Errorf("-fig: -%s %d must be at least %d", f.Name, v, least)
				return
			}
			*ints[f.Name] = v.(int)
		case sweeps[f.Name] != nil:
			*sweeps[f.Name], err = parseInts(v.(string))
		case f.Name == "seed":
			sc.Seed = v.(int64)
		case f.Name == "matcher":
			sc.Matcher, err = algo.ParseMatcher(v.(string))
		}
	})
	return sc, err
}

// parseInts parses a comma-separated sweep of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad sweep value %q (want a positive integer)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// runFigures prints the tables of fig (IDs, comma-separated, or "all" or
// "ext") at scale sc and, with outDir set, writes each as outDir/figID.csv.
func runFigures(stdout, stderr io.Writer, fig, outDir string, sc experiment.Scale) error {
	ids := strings.Split(fig, ",")
	switch fig {
	case "all":
		ids = experiment.FigureIDs()
	case "ext":
		ids = experiment.ExtensionIDs()
	}
	for _, id := range ids {
		tab, err := experiment.Run(strings.TrimSpace(id), sc)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if err := tab.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if outDir == "" {
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, "fig"+tab.ID+".csv")
		if err := strictjson.WriteFile(path, tab.CSV); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	return nil
}

// emitLoad writes sc's load to path ("-": stdout) in the named format: the
// classic document (json), built before the output is created, or a flow
// stream (jsonl, bin), written as Scenario.Emit hands out each flow.
func emitLoad(sc traffic.Scenario, rng *rand.Rand, path, format string, stdout, stderr io.Writer) error {
	var doc traffic.Load
	sf := traffic.FormatJSONL
	switch format {
	case "json":
		if err := sc.Emit(rng, func(f traffic.Flow) error { doc.Flows = append(doc.Flows, f); return nil }); err != nil {
			return err
		}
	case "bin":
		sf = traffic.FormatBinary
	case "jsonl":
	default:
		return fmt.Errorf("unknown format %q (want json, jsonl, or bin)", format)
	}
	flows, packets := len(doc.Flows), doc.TotalPackets()
	write := func(w io.Writer) error {
		if format == "json" {
			return doc.WriteJSON(w)
		}
		sw := traffic.NewStreamWriter(w, sf)
		if err := sc.Emit(rng, func(f traffic.Flow) error {
			flows, packets = flows+1, packets+f.Size
			return sw.Write(&f)
		}); err != nil {
			return err
		}
		return sw.Close()
	}
	if err := writeOut(path, stdout, write); err != nil || path == "-" {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s: %d flows, %d packets\n", path, flows, packets)
	return nil
}

// writeOut writes to the file at path with write, or to stdout for "-".
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	return strictjson.WriteFile(path, write)
}

// printStats summarises a load file of any encoding: flows, packets, the
// nodes it spans, packets by hop count of the first route, and flow-size
// percentiles.
func printStats(w io.Writer, path string) error {
	load, err := traffic.LoadAnyFile(path)
	if err != nil {
		return fmt.Errorf("load %s: %w", path, err)
	}
	sizes := make([]int, len(load.Flows))
	hops := make([]int, load.MaxHops()+1)
	maxNode := 0
	for i, f := range load.Flows {
		sizes[i] = f.Size
		hops[f.Routes[0].Hops()] += f.Size
		for _, r := range f.Routes {
			maxNode = max(maxNode, slices.Max(r))
		}
	}
	slices.Sort(sizes)
	fmt.Fprintf(w, "flows:   %d\npackets: %d\nnodes:   >= %d\nhop mix (packets): ", len(sizes), load.TotalPackets(), maxNode+1)
	for h := 1; h < len(hops); h++ {
		fmt.Fprintf(w, "%d-hop=%d ", h, hops[h])
	}
	fmt.Fprintln(w)
	if len(sizes) > 0 {
		pct := func(p float64) int { return sizes[int(p*float64(len(sizes)-1))] }
		fmt.Fprintf(w, "flow size: min=%d p50=%d p90=%d p99=%d max=%d\n",
			sizes[0], pct(0.5), pct(0.9), pct(0.99), sizes[len(sizes)-1])
	}
	return nil
}

// readLoad reads a load file (any encoding) and checks it fits the fabric.
func readLoad(path string, g *graph.Digraph) (*traffic.Load, error) {
	load, err := traffic.LoadAnyFile(path)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	if err := load.Validate(g); err != nil {
		return nil, fmt.Errorf("load %s does not fit the selected fabric: %w", path, err)
	}
	return load, nil
}

func report(w io.Writer, delivered, total int, frac float64, hops int, util float64, replayed, configs int) {
	fmt.Fprintf(w, "measured: delivered %d/%d (%.2f%%), %d packet-hops, utilization %.2f%%, %d/%d configs replayed\n",
		delivered, total, 100*frac, hops, 100*util, replayed, configs)
}
