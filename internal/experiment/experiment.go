// Package experiment regenerates every table and figure of the paper's
// evaluation (§8). A figure is a row of one table (figures.go): a sweep,
// an instance overlay and the series to read off it; one runner turns any
// row into a Table of averaged series, and Run dispatches by ID for
// mhsim -fig. A Scale selects the paper's full parameters or a reduced
// quick profile so tests and benchmarks share the same code paths.
package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"octopus/internal/core"
	"octopus/internal/par"
)

// Scale bundles every experiment parameter so the full paper-scale profile
// and the reduced quick profile share one code path.
type Scale struct {
	Name      string
	Nodes     int // default network size (paper: 100)
	Window    int // W in time slots (paper: 10,000)
	Delta     int // Δ in time slots (paper: 20)
	Instances int // random instances averaged per point (paper: 10)
	Matcher   core.Matcher
	Seed      int64
	Workers   int // parallel instances; <=1 means sequential

	NodeSweep     []int // Fig 4a/5a x-axis
	DeltaSweep    []int // Fig 4b/5b/7a/8/9a/10b x-axis
	SkewSweep     []int // Fig 4c/5c x-axis: c_S as % of (c_S+c_L)
	SparsitySweep []int // Fig 4d/5d x-axis: flows per port (n_L+n_S), ratio 1:3
	HopSweep      []int // Fig 7b x-axis: uniform route length
	TimeNodeSweep []int // Fig 10a x-axis: network size for timing
}

// Full returns the paper's evaluation parameters. On two cores a figure
// at this scale takes from seconds to a little over a minute, except
// Fig 6 (nine minutes) and Fig 10b (n = 1000, some 90 CPU-seconds per
// instance and point); use Quick for smoke runs.
func Full() Scale {
	return Scale{
		Name:          "full",
		Nodes:         100,
		Window:        10000,
		Delta:         20,
		Instances:     10,
		Matcher:       core.MatcherExact,
		Seed:          1,
		Workers:       8,
		NodeSweep:     []int{25, 50, 100, 200, 300},
		DeltaSweep:    []int{1, 10, 20, 50, 100, 200},
		SkewSweep:     []int{10, 30, 50, 70, 90},
		SparsitySweep: []int{4, 8, 16, 24, 32},
		HopSweep:      []int{1, 2, 3},
		TimeNodeSweep: []int{100, 200, 400, 700, 1000},
	}
}

// Quick returns a reduced profile sized for unit tests and benchmarks:
// the same sweeps and algorithms at a fraction of the paper's scale.
func Quick() Scale {
	return Scale{
		Name:          "quick",
		Nodes:         16,
		Window:        600,
		Delta:         10,
		Instances:     3,
		Matcher:       core.MatcherExact,
		Seed:          1,
		Workers:       4,
		NodeSweep:     []int{8, 12, 16, 24},
		DeltaSweep:    []int{1, 5, 10, 20, 40},
		SkewSweep:     []int{10, 30, 50, 70, 90},
		SparsitySweep: []int{4, 8, 12, 16},
		HopSweep:      []int{1, 2, 3},
		TimeNodeSweep: []int{8, 16, 32},
	}
}

// Row is one x-axis point of a Table; Values aligns with Table.Series.
type Row struct {
	X      float64
	Values []float64
}

// Table is the data behind one figure: named series sampled at a set of
// x-axis points, each averaged over Scale.Instances seeded instances.
type Table struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []string
	Rows   []Row
}

// Render writes the table as aligned text, one row per x value.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# y: %s\n", t.YLabel); err != nil {
		return err
	}
	widths := make([]int, len(t.Series)+1)
	widths[0] = len(t.XLabel)
	for i, s := range t.Series {
		widths[i+1] = len(s)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(t.Series)+1)
		cells[r][0] = fmt.Sprintf("%g", row.X)
		for c, v := range row.Values {
			cells[r][c+1] = fmt.Sprintf("%.2f", v)
		}
		for c, s := range cells[r] {
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	head := make([]string, len(t.Series)+1)
	head[0] = pad(t.XLabel, widths[0])
	for i, s := range t.Series {
		head[i+1] = pad(s, widths[i+1])
	}
	if _, err := fmt.Fprintln(w, strings.Join(head, "  ")); err != nil {
		return err
	}
	for r := range cells {
		for c := range cells[r] {
			cells[r][c] = pad(cells[r][c], widths[c])
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells[r], "  ")); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the table as comma-separated values with a header row.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s,%s\n", t.XLabel, strings.Join(t.Series, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		vals := make([]string, len(row.Values)+1)
		vals[0] = fmt.Sprintf("%g", row.X)
		for i, v := range row.Values {
			vals[i+1] = fmt.Sprintf("%.4f", v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(vals, ",")); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// point runs one experiment instance: it receives a seeded RNG and returns
// one value per series.
type point func(rng *rand.Rand) ([]float64, error)

// averagePoint runs sc.Instances seeded instances of f (in parallel up to
// sc.Workers) and averages the per-series results. The sum runs in
// instance order, so the mean does not depend on which goroutine finished
// first (float addition does not commute in the last bit).
func averagePoint(sc Scale, pointSeed int64, nseries int, f point) ([]float64, error) {
	vals := make([][]float64, sc.Instances)
	errs := make([]error, sc.Instances)
	par.For(max(1, sc.Workers), sc.Instances, func(_, inst int) {
		rng := rand.New(rand.NewSource(sc.Seed + pointSeed*1000 + int64(inst)))
		vals[inst], errs[inst] = f(rng)
	})
	sums := make([]float64, nseries)
	for inst, v := range vals {
		if errs[inst] != nil {
			return nil, errs[inst]
		}
		if len(v) != nseries {
			return nil, fmt.Errorf("experiment: point returned %d values, want %d", len(v), nseries)
		}
		for i := range v {
			sums[i] += v[i]
		}
	}
	for i := range sums {
		sums[i] /= float64(sc.Instances)
	}
	return sums, nil
}

// ids returns the sorted IDs of the figure table's paper figures (ext
// false) or extensions (ext true).
func ids(ext bool) []string {
	var out []string
	for _, f := range figures {
		if strings.HasPrefix(f.id, "ext-") == ext {
			out = append(out, f.id)
		}
	}
	sort.Strings(out)
	return out
}

// FigureIDs returns the sorted list of available figure IDs.
func FigureIDs() []string { return ids(false) }

// ExtensionIDs returns the sorted list of extension experiment IDs.
func ExtensionIDs() []string { return ids(true) }

// Run dispatches a figure or extension experiment by ID.
func Run(id string, sc Scale) (*Table, error) {
	for i := range figures {
		if figures[i].id == id {
			return figures[i].run(sc)
		}
	}
	return nil, fmt.Errorf("experiment: unknown experiment %q (figures %v, extensions %v)",
		id, FigureIDs(), ExtensionIDs())
}
