package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// contract is the part of BENCHMARK.json the benchmark reads back: the
// workloads, and each end-to-end metric's direction and bound.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadContract reads BENCHMARK.json from the repository root, which is the
// parent of the directory the benchmark runs in.
func loadContract() (*contract, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// readSet reads a set file: the reports of any number of runs, one JSON
// object after another (cat out/*.json >> set.json after each run). Only
// untraced reports carry end-to-end metrics; traced ones are skipped.
func readSet(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string][]report)
	dec := json.NewDecoder(f)
	for {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return set, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			set[r.Workload] = append(set[r.Workload], r)
		}
	}
}

// minPairs is the fewest pairs of runs a claim of improvement may rest on.
const minPairs = 10

// classify applies the pairing rule to one metric on one workload. The
// i-th run of each side is a pair (the sets are recorded alternating which
// side runs first). improved: at least minPairs pairs, the new side better
// in nine tenths of them (ties count for neither), and the medians apart
// by more than the old side's inter-quartile distance. regressed: the new
// median worse than the old by more than bound, as a share of the old
// median. unresolved: neither, but the old side's own spread is wider than
// the bound, so "no worse than the bound" cannot be told from noise —
// unless every new run is better than every old run. unchanged: the rest.
func classify(old, new []float64, higherBetter bool, bound float64) (verdict string, wins, pairs int) {
	pairs = min(len(old), len(new))
	old, new = old[:pairs], new[:pairs]
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := range old {
		if better(new[i], old[i]) {
			wins++
		}
	}
	om, nm := median(old), median(new)
	iqr := 0.0
	if pairs >= 2 {
		q1, q3 := quartiles(old)
		iqr = q3 - q1
	}
	scale := math.Abs(om)
	if scale == 0 {
		scale = 1
	}
	switch {
	case pairs >= minPairs && wins*10 >= pairs*9 && better(nm, om) && math.Abs(nm-om) > iqr:
		return "improved", wins, pairs
	case better(om, nm) && math.Abs(nm-om)/scale > bound:
		return "regressed", wins, pairs
	case iqr/scale > bound && !better(worst(new, higherBetter), best(old, higherBetter)):
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}

func best(xs []float64, higherBetter bool) float64 {
	if higherBetter {
		return percentile(xs, 1)
	}
	return percentile(xs, 0)
}

func worst(xs []float64, higherBetter bool) float64 { return best(xs, !higherBetter) }

// compareFiles prints one row per workload and end-to-end metric and
// reports whether the new set is free of regressions: no metric regressed
// and no workload failed a larger share of its operations.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	c, err := loadContract()
	if err != nil {
		return false, err
	}
	oldSet, err := readSet(oldPath)
	if err != nil {
		return false, err
	}
	newSet, err := readSet(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "wins", "verdict")
	for _, wl := range c.Workloads {
		o, n := oldSet[wl.Name], newSet[wl.Name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-13s no runs on one side (old %d, new %d)\n", wl.Name, len(o), len(n))
			continue
		}
		for _, m := range c.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			verdict, wins, pairs := classify(ov, nv, m.Better == "higher", m.Bound)
			om, nm := median(ov[:pairs]), median(nv[:pairs])
			fmt.Fprintf(w, "%-13s %-16s %12.6g %12.6g %+7.1f%% %4d/%-2d  %s\n",
				wl.Name, m.Name, om, nm, 100*(nm-om)/om, wins, pairs, verdict)
			if verdict == "regressed" {
				ok = false
			}
		}
		of, nf := failedFrac(o), failedFrac(n)
		verdict := "unchanged"
		if nf > of {
			verdict, ok = "regressed", false
		} else if nf < of {
			verdict = "improved"
		}
		fmt.Fprintf(w, "%-13s %-16s %12.6g %12.6g %8s %7s  %s\n", wl.Name, "failed_frac", of, nf, "", "", verdict)
	}
	return ok, nil
}

func values(reports []report, metric string) []float64 {
	xs := make([]float64, len(reports))
	for i, r := range reports {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

// failedFrac is failed over attempted operations across the runs.
func failedFrac(reports []report) float64 {
	failed, attempted := 0, 0
	for _, r := range reports {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(1, attempted))
}
