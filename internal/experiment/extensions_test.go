package experiment

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestExtensionIDs(t *testing.T) {
	ids := ExtensionIDs()
	want := []string{"ext-backtrack", "ext-buffers", "ext-eclipsepp", "ext-epsilon", "ext-makespan", "ext-ports", "ext-redundancy"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v", ids)
		}
	}
}

func TestExtensionsRunAtTinyScale(t *testing.T) {
	sc := tiny()
	for _, id := range ExtensionIDs() {
		tab, err := Run(id, sc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		for _, row := range tab.Rows {
			if len(row.Values) != len(tab.Series) {
				t.Fatalf("%s: row width mismatch", id)
			}
			for _, v := range row.Values {
				if v < 0 {
					t.Fatalf("%s: negative value %f", id, v)
				}
			}
		}
	}
}

func TestExtPortsMonotone(t *testing.T) {
	sc := tiny()
	sc.Instances = 2
	tab, err := Run("ext-ports", sc)
	if err != nil {
		t.Fatal(err)
	}
	// More ports never hurt delivered packets.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[0] < tab.Rows[i-1].Values[0]-0.001 {
			t.Fatalf("delivered decreased with more ports: %v", tab.Rows)
		}
	}
}

func TestExtMakespanAboveLowerBound(t *testing.T) {
	tab, err := Run("ext-makespan", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row.Values[0] < row.Values[1] {
			t.Fatalf("makespan %f below lower bound %f", row.Values[0], row.Values[1])
		}
	}
}

func TestExtBacktrackOrdering(t *testing.T) {
	sc := tiny()
	sc.Nodes = 10
	sc.Window = 300
	tab, err := Run("ext-backtrack", sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		plus, rnd := row.Values[0], row.Values[2]
		if plus <= rnd {
			t.Fatalf("delta=%v: Octopus+ %.2f not above Octopus-random %.2f", row.X, plus, rnd)
		}
	}
}

// TestExtEclipsePPOrdering: Eclipse++ re-routing recovers packets over the
// fixed-route VOQ replay of the same Eclipse sequence, and Octopus stays
// above both, at every Δ.
func TestExtEclipsePPOrdering(t *testing.T) {
	tab, err := Run("ext-eclipsepp", Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		oct, replay, epp := row.Values[0], row.Values[1], row.Values[2]
		if epp < replay {
			t.Errorf("delta=%v: Eclipse++ %.2f below the VOQ replay %.2f", row.X, epp, replay)
		}
		if oct <= epp || oct <= replay {
			t.Errorf("delta=%v: Octopus %.2f not above Eclipse++ %.2f and the replay %.2f", row.X, oct, epp, replay)
		}
	}
}

// TestExtBuffersGrowWithHops: 1-hop routes park nothing at intermediate
// nodes, and longer routes park more packets in total while delivering
// fewer.
func TestExtBuffersGrowWithHops(t *testing.T) {
	tab, err := Run("ext-buffers", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r := tab.Rows[0]; r.X != 1 || r.Values[0] != 0 || r.Values[1] != 0 {
		t.Fatalf("1-hop row buffers packets: %v", r)
	}
	for i := 1; i < len(tab.Rows); i++ {
		prev, cur := tab.Rows[i-1], tab.Rows[i]
		if cur.Values[1] <= prev.Values[1] {
			t.Errorf("%v hops: peak total buffering %.1f not above %.1f at %v", cur.X, cur.Values[1], prev.Values[1], prev.X)
		}
		if cur.Values[2] >= prev.Values[2] {
			t.Errorf("%v hops: delivered %.2f%% not below %.2f%% at %v", cur.X, cur.Values[2], prev.Values[2], prev.X)
		}
	}
}

// TestExtBuffersPerNodeGrowsAtPaperScale holds EXPERIMENTS.md's "peak
// per-node buffering grows with route length" to the paper-scale CSV: at
// the quick scale the 3-hop peak per node dips below the 2-hop one.
func TestExtBuffersPerNodeGrowsAtPaperScale(t *testing.T) {
	rows := readResults(t, "ext-buffers")
	for i := 1; i < len(rows); i++ {
		if rows[i][1] <= rows[i-1][1] {
			t.Errorf("%v hops: peak per-node buffering %v not above %v", rows[i][0], rows[i][1], rows[i-1][1])
		}
	}
}

// TestExtEpsilonBonusBeatsNone: every later-hop bonus ε > 0 at least
// doubles the delivery of ε = 0 on the all-3-hop load, at the quick scale
// and in the paper-scale CSV. Each row draws its own instances, so "beats"
// alone would also hold for a bonus that did nothing whenever the ε = 0
// row's instances happen to be the hardest; doubling does not.
func TestExtEpsilonBonusBeatsNone(t *testing.T) {
	tab, err := Run("ext-epsilon", Quick())
	if err != nil {
		t.Fatal(err)
	}
	quick := make([][]float64, len(tab.Rows))
	for i, row := range tab.Rows {
		quick[i] = append([]float64{row.X}, row.Values...)
	}
	for _, c := range []struct {
		scale string
		rows  [][]float64
	}{{"quick", quick}, {"paper", readResults(t, "ext-epsilon")}} {
		if c.rows[0][0] != 0 {
			t.Fatalf("%s: first row is eps64=%v, want 0", c.scale, c.rows[0][0])
		}
		none := c.rows[0][1]
		for _, row := range c.rows[1:] {
			if row[1] < 2*none {
				t.Errorf("%s, eps64=%v: %.2f%% is not twice eps64=0's %.2f%%", c.scale, row[0], row[1], none)
			}
		}
	}
}

// readResults parses results/fig<id>.csv, the paper-scale table, into rows
// of numbers with the x value first.
func readResults(t *testing.T, id string) [][]float64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "results", "fig"+id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n")[1:] {
		var row []float64
		for _, cell := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows
}
