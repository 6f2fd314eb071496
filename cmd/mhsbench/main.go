// Command mhsbench regenerates the tables and figures of the paper's
// evaluation section (§8). Each figure is printed as an aligned text table
// and optionally written as CSV.
//
// Usage:
//
//	mhsbench -fig 4a                 # one figure at quick scale
//	mhsbench -fig all -scale full    # the paper's full parameters
//	mhsbench -fig 8 -out results/    # also write results/fig8.csv
//
// The quick scale runs every figure in under a second; the full scale
// matches the paper's n=100, W=10000, Δ=20, 10 instances per point:
// seconds to a minute a figure on two cores, nine minutes for Fig 6 and
// fifty for Fig 10b at n=1000 (results/run_campaign.sh runs them all).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"octopus/internal/algo"
	"octopus/internal/buildinfo"
	"octopus/internal/experiment"
	"octopus/internal/strictjson"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure ID ("+strings.Join(experiment.FigureIDs(), ", ")+"), extension ID ("+strings.Join(experiment.ExtensionIDs(), ", ")+"), 'all', or 'ext'")
		scaleName = flag.String("scale", "quick", "experiment scale: quick or full")
		outDir    = flag.String("out", "", "directory to write per-figure CSV files (optional)")
		instances = flag.Int("instances", 0, "override instances per point")
		nodes     = flag.Int("n", 0, "override default network size")
		window    = flag.Int("window", 0, "override window W")
		delta     = flag.Int("delta", 0, "override reconfiguration delay Δ")
		matcher   = flag.String("matcher", "", "override matcher: exact or greedy")
		workers   = flag.Int("workers", 0, "override parallel instances")
		seed      = flag.Int64("seed", 0, "override base RNG seed")
		nodeSweep = flag.String("node-sweep", "", "override Fig4a/5a node sweep (comma-separated)")
		deltaSw   = flag.String("delta-sweep", "", "override reconfiguration-delay sweep (comma-separated)")
		timeNodes = flag.String("time-nodes", "", "override Fig10 network-size sweep (comma-separated)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")
		version   = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "mhsbench")
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			runtime.GC()
			if err := strictjson.WriteFile(*memProf, pprof.WriteHeapProfile); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	var sc experiment.Scale
	switch *scaleName {
	case "quick":
		sc = experiment.Quick()
	case "full":
		sc = experiment.Full()
	default:
		fatalf("unknown scale %q (want quick or full)", *scaleName)
	}
	if *instances > 0 {
		sc.Instances = *instances
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	if *window > 0 {
		sc.Window = *window
	}
	if *delta > 0 {
		sc.Delta = *delta
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *matcher != "" {
		m, err := algo.ParseMatcher(*matcher)
		if err != nil {
			fatalf("%v", err)
		}
		sc.Matcher = m
	}
	if *nodeSweep != "" {
		sc.NodeSweep = parseInts(*nodeSweep)
	}
	if *deltaSw != "" {
		sc.DeltaSweep = parseInts(*deltaSw)
	}
	if *timeNodes != "" {
		sc.TimeNodeSweep = parseInts(*timeNodes)
	}

	var ids []string
	switch *fig {
	case "all":
		ids = experiment.FigureIDs()
	case "ext":
		ids = experiment.ExtensionIDs()
	default:
		ids = strings.Split(*fig, ",")
	}
	for _, id := range ids {
		tab, err := experiment.Run(strings.TrimSpace(id), sc)
		if err != nil {
			fatalf("figure %s: %v", id, err)
		}
		if err := tab.Render(os.Stdout); err != nil {
			fatalf("render: %v", err)
		}
		fmt.Println()
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatalf("mkdir: %v", err)
			}
			path := filepath.Join(*outDir, "fig"+tab.ID+".csv")
			if err := strictjson.WriteFile(path, tab.CSV); err != nil {
				fatalf("write %s: %v", path, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil || v <= 0 {
			fatalf("bad sweep value %q", part)
		}
		out = append(out, v)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mhsbench: "+format+"\n", args...)
	os.Exit(1)
}
