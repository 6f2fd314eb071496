package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"octopus/internal/graph"
)

func TestFromDemandMatrix(t *testing.T) {
	g := graph.Complete(3)
	demand := [][]float64{
		{0, 10, 0},
		{0, 0, 5},
		{2.5, 0, 0},
	}
	rng := rand.New(rand.NewSource(1))
	load, err := FromDemandMatrix(g, demand, 100, SyntheticParams{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(load.Flows) != 3 {
		t.Fatalf("flows = %+v", load.Flows)
	}
	// Max entry (10) scales to the window (100); others proportionally.
	sizes := map[[2]int]int{}
	for _, f := range load.Flows {
		sizes[[2]int{f.Src, f.Dst}] = f.Size
	}
	if sizes[[2]int{0, 1}] != 100 || sizes[[2]int{1, 2}] != 50 || sizes[[2]int{2, 0}] != 25 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestFromDemandMatrixErrors(t *testing.T) {
	g := graph.Complete(3)
	rng := rand.New(rand.NewSource(1))
	cases := [][][]float64{
		{{0, 1}, {1, 0}},                     // wrong dimension
		{{0, 1, 0}, {0, 0, 1}},               // missing row
		{{0, -1, 0}, {0, 0, 0}, {0, 0, 0}},   // negative
		{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}},    // empty
		{{0, 1, 0}, {0, 0, 1, 9}, {0, 0, 0}}, // ragged
	}
	for i, d := range cases {
		if _, err := FromDemandMatrix(g, d, 100, SyntheticParams{}, rng); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Diagonal entries are ignored, not rejected.
	ok := [][]float64{{7, 1, 0}, {0, 0, 1}, {1, 0, 0}}
	load, err := FromDemandMatrix(g, ok, 100, SyntheticParams{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range load.Flows {
		if f.Src == f.Dst {
			t.Fatal("self-flow generated from diagonal")
		}
	}
	_ = load
}

func TestReadDemandCSV(t *testing.T) {
	in := `
# comment
0, 10, 2
3.5, 0, 1

1, 2, 0
`
	m, err := ReadDemandCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[1][0] != 3.5 || m[0][1] != 10 {
		t.Fatalf("matrix = %v", m)
	}
	bad := []string{
		"",             // empty
		"1,2\n3",       // ragged
		"1,x\n3,4",     // non-numeric
		"1,2,3\n4,5,6", // non-square
		"NaN,1\n1,0",   // not a number
		"0,-3\n1,0",    // negative
		"0,Inf\n1,0",   // infinite
	}
	for i, c := range bad {
		if _, err := ReadDemandCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestDemandCSVEndToEnd(t *testing.T) {
	g := graph.Complete(4)
	csv := "0,100,0,0\n0,0,50,0\n0,0,0,25\n10,0,0,0\n"
	m, err := ReadDemandCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	load, err := FromDemandMatrix(g, m, 1000, SyntheticParams{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if load.TotalPackets() != 1000+500+250+100 {
		t.Fatalf("total = %d", load.TotalPackets())
	}
}

// refTraceLike is TraceLike as it stood before it became FromDemandMatrix
// over traceDemand: its own rescale-to-window and per-entry flow loop.
func refTraceLike(g *graph.Digraph, kind TraceKind, window int, p SyntheticParams, rng *rand.Rand) (*Load, error) {
	n := g.N()
	demand := traceDemand(kind, n, rng)
	var maxD float64
	for _, row := range demand {
		for _, d := range row {
			if d > maxD {
				maxD = d
			}
		}
	}
	if maxD == 0 {
		return nil, fmt.Errorf("traffic: empty %v demand matrix", kind)
	}
	scale := float64(window) / maxD
	if p.MinHops == 0 {
		p.MinHops, p.MaxHops = 1, 3
	}
	load := &Load{}
	nextID := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			size := int(math.Round(demand[i][j] * scale))
			if size == 0 || i == j {
				continue
			}
			routes, err := sampleRoutes(g, i, j, nextID, p, rng)
			if err != nil {
				return nil, err
			}
			load.Flows = append(load.Flows, Flow{
				ID: nextID, Size: size, Src: i, Dst: j, Routes: routes,
			})
			nextID++
		}
	}
	return load, nil
}

// TestTraceLikeIsFromDemandMatrix holds TraceLike to its former body on
// 320 cases: four sizes, complete and degree-3 fabrics, every kind, ten
// seeds, one to three routes. The two agree because traceDemand never
// sets a diagonal entry and both draw from rng in the same order. Some
// small FB-3 matrices are empty: both fail there. -short leaves out the
// 40 cases of n = 100 on the degree-3 fabric.
func TestTraceLikeIsFromDemandMatrix(t *testing.T) {
	for _, n := range []int{4, 12, 25, 100} {
		for _, deg := range []int{0, 3} {
			if n == 100 && deg > 0 && testing.Short() {
				continue // route sampling on the sparse fabric: ≈ 6 s
			}
			g := graph.Complete(n)
			if deg > 0 {
				g = graph.RandomPartial(n, deg, rand.New(rand.NewSource(int64(n))))
			}
			for _, kind := range []TraceKind{FBHadoop, FBWeb, FBDatabase, MSHeatmap} {
				for seed := int64(0); seed < 10; seed++ {
					p := SyntheticParams{RouteChoices: 1 + int(seed)%3}
					got, gotErr := TraceLike(g, kind, 500, p, rand.New(rand.NewSource(seed)))
					want, wantErr := refTraceLike(g, kind, 500, p, rand.New(rand.NewSource(seed)))
					// TraceLike's empty-matrix error is FromDemandMatrix's,
					// which does not name the kind: compare errors by presence.
					if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d deg=%d %v seed %d: TraceLike differs from its reference (err %v vs %v)",
							n, deg, kind, seed, gotErr, wantErr)
					}
				}
			}
		}
	}
}
