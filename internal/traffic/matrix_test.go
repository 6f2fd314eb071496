package traffic

import (
	"math/rand"
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
