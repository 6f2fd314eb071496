// Command mhsgen generates multi-hop traffic loads, and prints summary
// statistics of existing load files.
//
// Usage:
//
//	mhsgen -n 100 -window 10000 -out load.json
//	mhsgen -trace fb-db -n 100 -window 10000 -out db.json
//	mhsgen -pods 32 -n 1024 -interpod 0.3 -format bin -out load.mhsb
//	mhsgen -pods 4 -n 64 -format jsonl -out - | head
//	mhsgen -stats load.mhsb
//
// The classic json format builds the whole load in memory; the jsonl and
// bin flow-stream formats write one record at a time, so -pods loads far
// larger than RAM stream straight to the output (use -out - for stdout).
// -stats accepts all three encodings. The generation flags mhsim shares
// (-n, -window, -seed, -trace, -routes, -fixed-hops, -pods) build the same
// load in both commands: each hands them to one traffic.Scenario.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"octopus/internal/buildinfo"
	"octopus/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "mhsgen: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: it parses args with its
// own FlagSet and writes only to the given writers (and the -out file).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mhsgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 100, "number of network nodes")
		window     = fs.Int("window", 10000, "window W (sets per-port traffic and trace scaling)")
		seed       = fs.Int64("seed", 1, "RNG seed")
		trace      = fs.String("trace", "", "trace-like load: "+strings.Join(traffic.TraceNames, ", ")+" (default: synthetic; with -pods, over the pod fabric)")
		routes     = fs.Int("routes", 1, "candidate routes per flow")
		fixedHops  = fs.Int("fixed-hops", 0, "force every route to this many hops")
		skew       = fs.Int("skew", 0, "c_S as percent of per-port traffic (synthetic; 0 = the paper's 30)")
		flows      = fs.Int("flows", 0, "flows per port, 1:3 large:small ratio (synthetic; 0 = the paper's n-scaled count, 16 at n = 100)")
		pods       = fs.Int("pods", 0, "generate a pod-structured load over this many pods of n/pods nodes")
		interpod   = fs.Float64("interpod", traffic.DefaultInterPod, "fraction of flows crossing pods (-pods mode)")
		interlinks = fs.Int("interlinks", 0, "inter-pod links per ordered pod pair (0 = min(4, pod size))")
		format     = fs.String("format", "json", "output encoding: json (classic document), jsonl or bin (flow streams)")
		matrix     = fs.String("matrix", "", "build the load from a CSV demand matrix instead of generating")
		out        = fs.String("out", "", "output path (default or \"-\": stdout)")
		stats      = fs.String("stats", "", "print statistics of an existing load file (any encoding) and exit")
		version    = fs.Bool("version", false, "print the version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Print(stdout, "mhsgen")
		return nil
	}
	if *stats != "" {
		return printStats(stdout, *stats)
	}

	sc := traffic.Scenario{
		N: *n, Window: *window, Pods: *pods, InterPod: *interpod, InterLinks: *interlinks,
		Trace: *trace, Routes: *routes, FixedHops: *fixedHops, Flows: *flows, Skew: *skew,
	}
	sf, streamed, err := parseFormat(*format)
	if err != nil {
		return err
	}
	if *matrix != "" {
		f, err := os.Open(*matrix)
		if err != nil {
			return err
		}
		sc.Matrix, err = traffic.ReadDemandCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return generate(sc, *seed, *out, sf, streamed, stdout, stderr)
}

// parseFormat maps the -format flag onto an encoding; streamed reports
// whether it is one of the flow-stream encodings.
func parseFormat(name string) (traffic.StreamFormat, bool, error) {
	switch name {
	case "json":
		return 0, false, nil
	case "jsonl":
		return traffic.FormatJSONL, true, nil
	case "bin":
		return traffic.FormatBinary, true, nil
	}
	return 0, false, fmt.Errorf("unknown format %q (want json, jsonl, or bin)", name)
}

// generate writes the scenario's load to out ("" or "-": stdout). The
// flow-stream encodings take it flow by flow, so a pod-synthetic load goes
// straight from the generator to the output without ever being held in
// memory; the classic document is built before the output is created.
func generate(sc traffic.Scenario, seed int64, out string, sf traffic.StreamFormat, streamed bool, stdout, stderr io.Writer) error {
	rng := rand.New(rand.NewSource(seed))
	var load *traffic.Load
	if !streamed {
		g, err := sc.Fabric(rng)
		if err != nil {
			return err
		}
		if load, err = sc.Load(g, rng); err != nil {
			return err
		}
	}
	w := stdout
	var file *os.File
	if out != "" && out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		w, file = f, f
	}
	flows, packets := 0, 0
	var err error
	if streamed {
		sw := traffic.NewStreamWriter(w, sf)
		err = sc.Emit(rng, func(f traffic.Flow) error {
			flows++
			packets += f.Size
			return sw.Write(&f)
		})
		if err == nil {
			err = sw.Close()
		}
	} else {
		flows, packets = len(load.Flows), load.TotalPackets()
		err = load.WriteJSON(w)
	}
	if file == nil {
		return err
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(stderr, "wrote %s: %d flows, %d packets\n", out, flows, packets)
	}
	return err
}

func printStats(w io.Writer, path string) error {
	loadPtr, err := traffic.LoadAnyFile(path)
	if err != nil {
		return err
	}
	load := *loadPtr
	sizes := make([]int, 0, len(load.Flows))
	hops := map[int]int{}
	maxNode := 0
	for _, f := range load.Flows {
		sizes = append(sizes, f.Size)
		hops[f.Routes[0].Hops()] += f.Size
		for _, r := range f.Routes {
			for _, v := range r {
				if v > maxNode {
					maxNode = v
				}
			}
		}
	}
	sort.Ints(sizes)
	pct := func(p float64) int {
		if len(sizes) == 0 {
			return 0
		}
		i := int(p * float64(len(sizes)-1))
		return sizes[i]
	}
	fmt.Fprintf(w, "flows:   %d\n", len(load.Flows))
	fmt.Fprintf(w, "packets: %d\n", load.TotalPackets())
	fmt.Fprintf(w, "nodes:   >= %d\n", maxNode+1)
	fmt.Fprintf(w, "hop mix (packets): ")
	for h := 1; h <= load.MaxHops(); h++ {
		fmt.Fprintf(w, "%d-hop=%d ", h, hops[h])
	}
	fmt.Fprintln(w)
	if len(sizes) > 0 {
		fmt.Fprintf(w, "flow size: min=%d p50=%d p90=%d p99=%d max=%d\n",
			sizes[0], pct(0.5), pct(0.9), pct(0.99), sizes[len(sizes)-1])
	}
	return nil
}
