// Command bench is the repository's benchmark: four seeded workloads, the
// end-to-end metrics a user of mhsim or an operator of mhsd would feel, and
// a traced run that attributes time to the layer that spent it. README.md
// in this directory says what each workload and metric is for;
// BENCHMARK.json at the repository root is the contract later changes are
// measured against.
//
//	go run -C bench . -workload pods-flows -seed 1             # end-to-end metrics
//	go run -C bench . -workload pods-flows -seed 1 -trace 1    # per-layer metrics and spans
//	go run -C bench . -all -seed 1                             # every workload
//	go run -C bench . -compare old.json new.json               # two sets of reports
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what the command line fixes for one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured section
	trace   bool
	// Set-up is repeated, and its median reported, until it has run
	// setups times and for setupSeconds in all (at most maxSetups times).
	setups       int
	setupSeconds float64
	outDir       string
}

// maxSetups caps the repetitions of a set-up that takes next to no time.
const maxSetups = 40

// repeatSetup runs the workload's set-up as often as rc asks and returns
// the seconds each run took. A set-up of a few milliseconds reads very
// differently cold and warm, so short ones are repeated more often.
// teardown, when not nil, undoes a set-up before the next one; it is not
// timed, and the last set-up is left standing for the run to use.
func (rc runConfig) repeatSetup(setup, teardown func() error) ([]float64, error) {
	var took []float64
	total := 0.0
	for len(took) < rc.setups || total < rc.setupSeconds && len(took) < maxSetups {
		if teardown != nil && len(took) > 0 {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		took = append(took, time.Since(start).Seconds())
		total += took[len(took)-1]
	}
	return took, nil
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(rc runConfig) (*result, *tracer, error)
}

// workloads returns the benchmark's workloads at the sizes that define
// them (README.md has the reasons; tests build smaller ones).
func workloads() []workload {
	return []workload{
		{"fig4-exact", fig4Exact(256, 10000, 20).run},
		{"pods-flows", podsFlows(32, 32, 512, 4, 1_000_000).run},
		{"engine-churn", engineChurn().run},
		{"daemon-http", daemonHTTP().run},
	}
}

// runOne runs the workload, prints its metrics and result line to stdout
// and writes its report (and, traced, its spans) under rc.outDir. It
// reports whether the run was correct.
func runOne(w workload, rc runConfig) (bool, error) {
	res, tr, err := w.run(rc)
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := res.report(w.name, rc)
	if err := rep.write(rc.outDir); err != nil {
		return false, err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(rc.outDir, w.name+".trace.json"), w.name, rc.seed); err != nil {
			return false, err
		}
	}
	return rep.Correct, rep.print(os.Stdout)
}

func main() {
	name := flag.String("workload", "", "workload to run: fig4-exact, pods-flows, engine-churn or daemon-http")
	all := flag.Bool("all", false, "run every workload")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured section in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run: per-layer metrics and a span file")
	outDir := flag.String("out", "out", "directory for reports and span files")
	compare := flag.Bool("compare", false, "compare two sets of reports: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var selected []workload
	for _, w := range workloads() {
		if *all || w.name == *name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || flag.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench (-workload NAME | -all) [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 5, setupSeconds: 1.5, outDir: *outDir}
	correct := true
	for _, w := range selected {
		ok, err := runOne(w, rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		correct = correct && ok
	}
	if !correct {
		os.Exit(1)
	}
}
