package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"octopus/internal/algo"
	"octopus/internal/core"
)

// tiny returns a minimal scale so every figure runs in test time.
func tiny() Scale {
	return Scale{
		Name:          "tiny",
		Nodes:         8,
		Window:        200,
		Delta:         5,
		Instances:     2,
		Matcher:       core.MatcherExact,
		Seed:          7,
		Workers:       2,
		NodeSweep:     []int{6, 8},
		DeltaSweep:    []int{2, 8},
		SkewSweep:     []int{30, 70},
		SparsitySweep: []int{4, 8},
		HopSweep:      []int{1, 2, 3},
		TimeNodeSweep: []int{6, 10},
	}
}

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 16 {
		t.Fatalf("got %d figures, want 16: %v", len(ids), ids)
	}
	want := []string{"10a", "10b", "4a", "4b", "4c", "4d", "5a", "5b", "5c", "5d", "6", "7a", "7b", "8", "9a", "9b"}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids = %v", ids)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestAllFiguresRunAtTinyScale(t *testing.T) {
	sc := tiny()
	for _, id := range FigureIDs() {
		tab, err := Run(id, sc)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(tab.Rows) == 0 || len(tab.Series) == 0 {
			t.Fatalf("figure %s: empty table", id)
		}
		for _, row := range tab.Rows {
			if len(row.Values) != len(tab.Series) {
				t.Fatalf("figure %s: row width mismatch", id)
			}
			for si, v := range row.Values {
				if v < 0 {
					t.Fatalf("figure %s series %s: negative value %f", id, tab.Series[si], v)
				}
				if id != "10a" && v > 100.0001 {
					t.Fatalf("figure %s series %s: percentage %f > 100", id, tab.Series[si], v)
				}
			}
		}
	}
}

func TestFig4aQualitative(t *testing.T) {
	sc := tiny()
	sc.Instances = 3
	tab, err := Run("4a", sc)
	if err != nil {
		t.Fatal(err)
	}
	// Series order: Octopus, Eclipse-Based, UB, AbsoluteUB.
	for _, row := range tab.Rows {
		oct, ecl, ub := row.Values[0], row.Values[1], row.Values[2]
		if oct <= ecl {
			t.Fatalf("n=%v: Octopus %.2f not above Eclipse-Based %.2f", row.X, oct, ecl)
		}
		if ub < 0.85*oct {
			t.Fatalf("n=%v: UB %.2f far below Octopus %.2f", row.X, ub, oct)
		}
	}
}

func TestFig8Qualitative(t *testing.T) {
	tab, err := Run("8", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		octDel, rotDel := row.Values[0], row.Values[1]
		octUtil, rotUtil := row.Values[2], row.Values[3]
		if octDel <= rotDel {
			t.Fatalf("delta=%v: Octopus %.2f not above RotorNet %.2f", row.X, octDel, rotDel)
		}
		if octUtil <= rotUtil {
			t.Fatalf("delta=%v: Octopus util %.2f not above RotorNet %.2f", row.X, octUtil, rotUtil)
		}
	}
}

// TestFig8PaperScaleRanges asserts the ranges EXPERIMENTS.md §8 reports
// over the paper-scale results/fig8.csv, at every Δ: Octopus delivers at
// least 40 % at a utilization of at least 90 %, RotorNet at most 12 % at a
// utilization of at most 25 %. A copy with any one of the four values of
// any row moved just past its bound must fail the predicate.
func TestFig8PaperScaleRanges(t *testing.T) {
	inRange := func(rows [][]float64) error {
		for _, row := range rows {
			octDel, rotDel, octUtil, rotUtil := row[1], row[2], row[3], row[4]
			switch {
			case octDel < 40:
				return fmt.Errorf("Δ=%v: Octopus delivers %.4f%%, below 40%%", row[0], octDel)
			case octUtil < 90:
				return fmt.Errorf("Δ=%v: Octopus utilization %.4f%%, below 90%%", row[0], octUtil)
			case rotDel > 12:
				return fmt.Errorf("Δ=%v: RotorNet delivers %.4f%%, above 12%%", row[0], rotDel)
			case rotUtil > 25:
				return fmt.Errorf("Δ=%v: RotorNet utilization %.4f%%, above 25%%", row[0], rotUtil)
			}
		}
		return nil
	}
	rows := readResults(t, "8")
	for _, row := range rows {
		if len(row) != 5 {
			t.Fatalf("fig8.csv row %v: want delta, Octopus del%%, RotorNet del%%, Octopus util%%, RotorNet util%%", row)
		}
	}
	if err := inRange(rows); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for _, m := range []struct {
			col int
			to  float64
		}{{1, 39.9}, {2, 12.1}, {3, 89.9}, {4, 25.1}} {
			broken := make([][]float64, len(rows))
			for j := range rows {
				broken[j] = slices.Clone(rows[j])
			}
			broken[i][m.col] = m.to
			if inRange(broken) == nil {
				t.Errorf("Δ=%v: column %d set to %.1f and the predicate still holds", row[0], m.col, m.to)
			}
		}
	}
}

func TestFig10aExactSlowerThanGreedy(t *testing.T) {
	sc := tiny()
	sc.TimeNodeSweep = []int{12}
	tab, err := Run("10a", sc)
	if err != nil {
		t.Fatal(err)
	}
	exact, greedy := tab.Rows[0].Values[0], tab.Rows[0].Values[1]
	if exact <= 0 || greedy <= 0 {
		t.Fatalf("non-positive timings: %f %f", exact, greedy)
	}
}

// TestFig9aOctopusBWithinPointTwo asserts the claim of EXPERIMENTS.md §9a
// over the paper-scale results/fig9a.csv: Octopus-B delivers within 0.2
// points of Octopus at every Δ (the largest gap is 0.184, at Δ = 100). A
// copy with any one Octopus-B value moved 0.3 points away from Octopus
// must fail the predicate.
func TestFig9aOctopusBWithinPointTwo(t *testing.T) {
	within := func(rows [][]float64) error {
		for _, row := range rows {
			if gap := math.Abs(row[1] - row[2]); gap > 0.2 {
				return fmt.Errorf("Δ=%v: Octopus %.4f, Octopus-B %.4f, %.4f points apart", row[0], row[1], row[2], gap)
			}
		}
		return nil
	}
	rows := readResults(t, "9a")
	for _, row := range rows {
		if len(row) != 3 {
			t.Fatalf("fig9a.csv row %v: want delta, Octopus, Octopus-B", row)
		}
	}
	if err := within(rows); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		broken := make([][]float64, len(rows))
		for j := range rows {
			broken[j] = slices.Clone(rows[j])
		}
		if row[2] >= row[1] {
			broken[i][2] += 0.3
		} else {
			broken[i][2] -= 0.3
		}
		if within(broken) == nil {
			t.Errorf("Δ=%v: Octopus-B moved 0.3 points and the predicate still holds", row[0])
		}
	}
}

// TestFig9bOctopusPlusTwiceRandom asserts the claim of EXPERIMENTS.md §9b
// over the paper-scale results/fig9b.csv: Octopus+ delivers at least twice
// what Octopus-random does at every Δ (the ratio runs 2.16–2.59). A copy
// with any one Octopus-random value raised past half of Octopus+ must fail
// the predicate.
func TestFig9bOctopusPlusTwiceRandom(t *testing.T) {
	twice := func(rows [][]float64) error {
		for _, row := range rows {
			if row[1] < 2*row[2] {
				return fmt.Errorf("Δ=%v: Octopus+ %.4f below twice Octopus-random %.4f", row[0], row[1], row[2])
			}
		}
		return nil
	}
	rows := readResults(t, "9b")
	for _, row := range rows {
		if len(row) != 3 {
			t.Fatalf("fig9b.csv row %v: want delta, Octopus+, Octopus-random", row)
		}
	}
	if err := twice(rows); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		broken := make([][]float64, len(rows))
		for j := range rows {
			broken[j] = slices.Clone(rows[j])
		}
		broken[i][2] = row[1]/2 + 0.01
		if twice(broken) == nil {
			t.Errorf("Δ=%v: Octopus-random raised past half of Octopus+ and the predicate still holds", row[0])
		}
	}
}

// TestFig7aOctopusShareOfPsi asserts the claim of EXPERIMENTS.md §7a over
// the paper-scale results/fig7a.csv, at every Δ: Octopus delivers 80–91 %
// of its ψ (the CSV reads 81.9–90.1), UB a smaller share than Octopus, and
// Eclipse-Based a smaller share than UB. A copy with one row moved to
// break any one of the three must fail the predicate.
func TestFig7aOctopusShareOfPsi(t *testing.T) {
	ordered := func(rows [][]float64) error {
		for _, row := range rows {
			oct, ecl, ub := row[1], row[2], row[3]
			switch {
			case oct < 80 || oct > 91:
				return fmt.Errorf("Δ=%v: Octopus delivers %.4f%% of ψ, outside [80, 91]", row[0], oct)
			case ub >= oct:
				return fmt.Errorf("Δ=%v: UB %.4f not below Octopus %.4f", row[0], ub, oct)
			case ecl >= ub:
				return fmt.Errorf("Δ=%v: Eclipse-Based %.4f not below UB %.4f", row[0], ecl, ub)
			}
		}
		return nil
	}
	rows := readResults(t, "7a")
	for _, row := range rows {
		if len(row) != 4 {
			t.Fatalf("fig7a.csv row %v: want delta, Octopus, Eclipse-Based, UB", row)
		}
	}
	if err := ordered(rows); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for _, m := range []struct {
			what  string
			apply func(r []float64)
		}{
			{"Octopus raised to 91.5", func(r []float64) { r[1] = 91.5 }},
			{"UB raised past Octopus", func(r []float64) { r[3] = r[1] + 0.1 }},
			{"Eclipse-Based raised past UB", func(r []float64) { r[2] = r[3] + 0.1 }},
		} {
			broken := make([][]float64, len(rows))
			for j := range rows {
				broken[j] = slices.Clone(rows[j])
			}
			m.apply(broken[i])
			if ordered(broken) == nil {
				t.Errorf("Δ=%v: %s and the predicate still holds", row[0], m.what)
			}
		}
	}
}

// TestFig10bOctopusGCloseToOctopus asserts the claim of EXPERIMENTS.md §10b
// over the paper-scale results/fig10b.csv (n = 1000), at every Δ: Octopus-G
// delivers less than Octopus, and at least 94.5 % of it (the CSV reads
// 94.9–97.0 %; DESIGN.md §7 says "Octopus-G ≥ ~95 %"). A copy with one row's
// Octopus-G raised to Octopus, or lowered to 94 % of it, must fail the
// predicate.
func TestFig10bOctopusGCloseToOctopus(t *testing.T) {
	near := func(rows [][]float64) error {
		for _, row := range rows {
			oct, g := row[1], row[2]
			switch {
			case g >= oct:
				return fmt.Errorf("Δ=%v: Octopus-G %.4f not below Octopus %.4f", row[0], g, oct)
			case g < 0.945*oct:
				return fmt.Errorf("Δ=%v: Octopus-G %.4f is %.2f%% of Octopus %.4f, below 94.5%%", row[0], g, 100*g/oct, oct)
			}
		}
		return nil
	}
	rows := readResults(t, "10b")
	for _, row := range rows {
		if len(row) != 3 {
			t.Fatalf("fig10b.csv row %v: want delta, Octopus, Octopus-G", row)
		}
	}
	if err := near(rows); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for _, m := range []struct {
			what  string
			apply func(r []float64)
		}{
			{"Octopus-G raised to Octopus", func(r []float64) { r[2] = r[1] }},
			{"Octopus-G lowered to 94% of Octopus", func(r []float64) { r[2] = 0.94 * r[1] }},
		} {
			broken := make([][]float64, len(rows))
			for j := range rows {
				broken[j] = slices.Clone(rows[j])
			}
			m.apply(broken[i])
			if near(broken) == nil {
				t.Errorf("Δ=%v: %s and the predicate still holds", row[0], m.what)
			}
		}
	}
}

// TestFig4bOctopusDegradesGentlyWithDelta asserts the claims of
// EXPERIMENTS.md §4b over the paper-scale results/fig4b.csv (Δ = 1..200, the
// exact matcher's Δ sweep), one clause at a time: Octopus falls at every
// step, from 57.0 at Δ = 1 to 42.1 at Δ = 200; Eclipse-Based stays inside
// 21–24.5 (the CSV reads 21.4–24.0); and Octopus delivers at least 1.9×
// Eclipse-Based at every Δ (the CSV reads 1.97–2.43). Each clause must fail
// on a copy mutated against it.
func TestFig4bOctopusDegradesGentlyWithDelta(t *testing.T) {
	rows := readResults(t, "4b")
	for _, row := range rows {
		if len(row) != 5 {
			t.Fatalf("fig4b.csv row %v: want delta, Octopus, Eclipse-Based, UB, AbsoluteUB", row)
		}
	}
	if len(rows) < 2 || rows[0][0] != 1 || rows[len(rows)-1][0] != 200 {
		t.Fatalf("fig4b.csv: want a Δ sweep from 1 to 200, got %v", rows)
	}
	assertClauses(t, "Δ", rows, []clause{
		{"Octopus falls 57.0 → 42.1", func(rows [][]float64) error {
			if a, b := math.Round(10*rows[0][1])/10, math.Round(10*rows[len(rows)-1][1])/10; a != 57.0 || b != 42.1 {
				return fmt.Errorf("Octopus runs %.1f → %.1f, want 57.0 → 42.1", a, b)
			}
			for i := 1; i < len(rows); i++ {
				if rows[i][1] >= rows[i-1][1] {
					return fmt.Errorf("Δ=%v: Octopus %.4f does not fall from %.4f at Δ=%v", rows[i][0], rows[i][1], rows[i-1][1], rows[i-1][0])
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			// The ends move 0.1 off the claim, and stay in order; a row
			// between them rises to the previous Δ's.
			"Octopus moved": func(r [][]float64, i int) {
				switch i {
				case 0:
					r[0][1] = 56.9
				case len(r) - 1:
					r[i][1] = 42.2
				default:
					r[i][1] = r[i-1][1]
				}
			},
		}},
		{"Eclipse-Based flat inside 21–24.5", func(rows [][]float64) error {
			for _, row := range rows {
				if row[2] < 21 || row[2] > 24.5 {
					return fmt.Errorf("Δ=%v: Eclipse-Based %.4f outside [21, 24.5]", row[0], row[2])
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"Eclipse-Based lowered to 20.9": func(r [][]float64, i int) { r[i][2] = 20.9 },
			"Eclipse-Based raised to 24.6":  func(r [][]float64, i int) { r[i][2] = 24.6 },
		}},
		{"Octopus ≥ 1.9× Eclipse-Based", func(rows [][]float64) error {
			for _, row := range rows {
				if row[1] < 1.9*row[2] {
					return fmt.Errorf("Δ=%v: Octopus %.4f below 1.9× Eclipse-Based %.4f", row[0], row[1], row[2])
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"Eclipse-Based raised to Octopus/1.89": func(r [][]float64, i int) { r[i][2] = r[i][1] / 1.89 },
		}},
	})
}

// TestFig4dOctopusRisesWithFlowsPerPort asserts the claims of
// EXPERIMENTS.md §4d over the paper-scale results/fig4d.csv, one clause at
// a time: Octopus rises at every step, from 44.7 at 4 flows per port to
// 55.8 at 32; Octopus delivers at least 1.6× Eclipse-Based at every point
// (the CSV reads 1.66–2.25×); and Octopus stays within 1 point of UB (the
// CSV's largest gap is 0.93, at 4 flows per port). Each clause must fail
// on a copy mutated against it.
func TestFig4dOctopusRisesWithFlowsPerPort(t *testing.T) {
	rows := readResults(t, "4d")
	for _, row := range rows {
		if len(row) != 5 {
			t.Fatalf("fig4d.csv row %v: want flows/port, Octopus, Eclipse-Based, UB, AbsoluteUB", row)
		}
	}
	if len(rows) < 2 || rows[0][0] != 4 || rows[len(rows)-1][0] != 32 {
		t.Fatalf("fig4d.csv: want a sweep from 4 to 32 flows per port, got %v", rows)
	}
	assertClauses(t, "flows/port", rows, []clause{
		{"Octopus rises 44.7 → 55.8", func(rows [][]float64) error {
			if a, b := math.Round(10*rows[0][1])/10, math.Round(10*rows[len(rows)-1][1])/10; a != 44.7 || b != 55.8 {
				return fmt.Errorf("Octopus runs %.1f → %.1f, want 44.7 → 55.8", a, b)
			}
			for i := 1; i < len(rows); i++ {
				if rows[i][1] <= rows[i-1][1] {
					return fmt.Errorf("flows/port=%v: Octopus %.4f does not rise from %.4f", rows[i][0], rows[i][1], rows[i-1][1])
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			// The ends move 0.1 off the claim, and stay in order; a row
			// between them falls to the previous point's.
			"Octopus moved": func(r [][]float64, i int) {
				switch i {
				case 0:
					r[0][1] = 44.6
				case len(r) - 1:
					r[i][1] = 55.9
				default:
					r[i][1] = r[i-1][1]
				}
			},
		}},
		{"Octopus ≥ 1.6× Eclipse-Based", func(rows [][]float64) error {
			for _, row := range rows {
				if row[1] < 1.6*row[2] {
					return fmt.Errorf("flows/port=%v: Octopus %.4f below 1.6× Eclipse-Based %.4f", row[0], row[1], row[2])
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"Eclipse-Based raised to Octopus/1.59": func(r [][]float64, i int) { r[i][2] = r[i][1] / 1.59 },
		}},
		{"|Octopus − UB| < 1", func(rows [][]float64) error {
			for _, row := range rows {
				if gap := math.Abs(row[1] - row[3]); gap >= 1 {
					return fmt.Errorf("flows/port=%v: Octopus %.4f and UB %.4f are %.4f points apart", row[0], row[1], row[3], gap)
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"UB raised 1.01 above Octopus":  func(r [][]float64, i int) { r[i][3] = r[i][1] + 1.01 },
			"UB lowered 1.01 below Octopus": func(r [][]float64, i int) { r[i][3] = r[i][1] - 1.01 },
		}},
	})
}

// TestFig7bOctopusEWinsOnUniformHops asserts the claims of EXPERIMENTS.md
// §7b over the paper-scale results/fig7b.csv (every flow forced to the same
// route length), one clause at a time: at 1 hop Octopus, Octopus-e and UB
// all read 97.0; Octopus-e beats Octopus at 2 and 3 hops, by a gap that
// grows from 12.6 to 13.6 points; and at 3 hops both Octopus and Octopus-e
// beat UB. Each clause must fail on a copy mutated against it.
func TestFig7bOctopusEWinsOnUniformHops(t *testing.T) {
	rows := readResults(t, "7b")
	if len(rows) != 3 || rows[0][0] != 1 || rows[1][0] != 2 || rows[2][0] != 3 {
		t.Fatalf("fig7b.csv: want rows for 1, 2 and 3 hops, got %v", rows)
	}
	for _, row := range rows {
		if len(row) != 4 {
			t.Fatalf("fig7b.csv row %v: want route hops, Octopus, Octopus-e, UB", row)
		}
	}
	assertClauses(t, "hops", rows, []clause{
		{"all three read 97.0 at 1 hop", func(rows [][]float64) error {
			for c := 1; c <= 3; c++ {
				if rows[0][c] != 97 {
					return fmt.Errorf("column %d reads %.4f at 1 hop, want 97.0", c, rows[0][c])
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"Octopus at 1 hop lowered to 96.9":   func(r [][]float64, _ int) { r[0][1] = 96.9 },
			"Octopus-e at 1 hop lowered to 96.9": func(r [][]float64, _ int) { r[0][2] = 96.9 },
			"UB at 1 hop lowered to 96.9":        func(r [][]float64, _ int) { r[0][3] = 96.9 },
		}},
		{"Octopus-e's lead grows 12.6 → 13.6", func(rows [][]float64) error {
			gap2, gap3 := rows[1][2]-rows[1][1], rows[2][2]-rows[2][1]
			if math.Round(10*gap2)/10 != 12.6 || math.Round(10*gap3)/10 != 13.6 {
				return fmt.Errorf("Octopus-e leads by %.4f at 2 hops and %.4f at 3, want 12.6 and 13.6", gap2, gap3)
			}
			if gap3 <= gap2 {
				return fmt.Errorf("Octopus-e's lead shrinks from %.4f at 2 hops to %.4f at 3", gap2, gap3)
			}
			return nil
		}, map[string]func([][]float64, int){
			"Octopus-e lowered to Octopus at 2 hops": func(r [][]float64, _ int) { r[1][2] = r[1][1] },
			"Octopus-e lowered to Octopus at 3 hops": func(r [][]float64, _ int) { r[2][2] = r[2][1] },
			"Octopus raised 0.1 at 3 hops":           func(r [][]float64, _ int) { r[2][1] += 0.1 },
		}},
		{"both above UB at 3 hops", func(rows [][]float64) error {
			if oct, e, ub := rows[2][1], rows[2][2], rows[2][3]; oct <= ub || e <= ub {
				return fmt.Errorf("at 3 hops Octopus %.4f and Octopus-e %.4f, UB %.4f", oct, e, ub)
			}
			return nil
		}, map[string]func([][]float64, int){
			"Octopus lowered to UB at 3 hops":   func(r [][]float64, _ int) { r[2][1] = r[2][3] },
			"Octopus-e lowered to UB at 3 hops": func(r [][]float64, _ int) { r[2][2] = r[2][3] },
		}},
	})
}

// TestFig4cOctopusRisesWithSmallFlowShare asserts the claims of
// EXPERIMENTS.md §4c over the paper-scale results/fig4c.csv, one clause at
// a time: Octopus rises 48.6 → 54.1 → 56.7 over cS = 10–50 %; it reads at
// least 8 points more at 90 % than at 10 % (the CSV reads 8.26); it
// delivers at least 2.0× Eclipse-Based at every point (the smallest ratio
// is 2.11, at 10 %); and it stays within 2 points of UB (the largest gap
// is 1.80, at 10 %). Each clause must fail on a copy mutated against it.
func TestFig4cOctopusRisesWithSmallFlowShare(t *testing.T) {
	rows := readResults(t, "4c")
	for _, row := range rows {
		if len(row) != 5 {
			t.Fatalf("fig4c.csv row %v: want cS%%, Octopus, Eclipse-Based, UB, AbsoluteUB", row)
		}
	}
	if len(rows) != 5 || rows[0][0] != 10 || rows[2][0] != 50 || rows[4][0] != 90 {
		t.Fatalf("fig4c.csv: want cS = 10, 30, 50, 70, 90 %%, got %v", rows)
	}
	assertClauses(t, "cS%", rows, []clause{
		{"Octopus rises 48.6 → 54.1 → 56.7 over 10–50 %", func(rows [][]float64) error {
			for i, want := range []float64{48.6, 54.1, 56.7} {
				if got := math.Round(10*rows[i][1]) / 10; got != want {
					return fmt.Errorf("cS=%v%%: Octopus reads %.1f, want %.1f", rows[i][0], got, want)
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"Octopus at 10% moved to 48.5":    func(r [][]float64, _ int) { r[0][1] = 48.5 },
			"Octopus at 30% lowered to 10%'s": func(r [][]float64, _ int) { r[1][1] = r[0][1] },
			"Octopus at 50% moved to 56.8":    func(r [][]float64, _ int) { r[2][1] = 56.8 },
			"Octopus at 50% lowered to 30%'s": func(r [][]float64, _ int) { r[2][1] = r[1][1] },
		}},
		{"Octopus ≥ 8 points higher at 90 % than at 10 %", func(rows [][]float64) error {
			if rise := rows[4][1] - rows[0][1]; rise < 8 {
				return fmt.Errorf("Octopus rises only %.4f points from 10%% to 90%%", rise)
			}
			return nil
		}, map[string]func([][]float64, int){
			"Octopus at 90% lowered to 10%'s + 7.9": func(r [][]float64, _ int) { r[4][1] = r[0][1] + 7.9 },
		}},
		{"Octopus ≥ 2.0× Eclipse-Based", func(rows [][]float64) error {
			for _, row := range rows {
				if row[1] < 2*row[2] {
					return fmt.Errorf("cS=%v%%: Octopus %.4f below 2× Eclipse-Based %.4f", row[0], row[1], row[2])
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"Eclipse-Based raised to Octopus/1.99": func(r [][]float64, i int) { r[i][2] = r[i][1] / 1.99 },
		}},
		{"|Octopus − UB| < 2", func(rows [][]float64) error {
			for _, row := range rows {
				if gap := math.Abs(row[1] - row[3]); gap >= 2 {
					return fmt.Errorf("cS=%v%%: Octopus %.4f and UB %.4f are %.4f points apart", row[0], row[1], row[3], gap)
				}
			}
			return nil
		}, map[string]func([][]float64, int){
			"UB raised 2.01 above Octopus":  func(r [][]float64, i int) { r[i][3] = r[i][1] + 2.01 },
			"UB lowered 2.01 below Octopus": func(r [][]float64, i int) { r[i][3] = r[i][1] - 2.01 },
		}},
	})
}

// TestFig5UtilizationBands asserts the claims of EXPERIMENTS.md §5 over the
// paper-scale results/fig5a.csv–fig5d.csv (link utilization in the four
// sweeps of Fig 4), one clause at a time and in every sweep: Octopus
// utilizes at least 93 % (the smallest is 93.46, at Δ = 200); UB at least
// 99.3 % (smallest 99.33); Eclipse-Based stays inside 58–70 % (it reads
// 58.86–69.52); and Octopus leads Eclipse-Based by at least 30 points
// (the smallest lead is 30.48, at n = 25). Each clause must fail on a copy
// mutated against it.
func TestFig5UtilizationBands(t *testing.T) {
	for _, fig := range []struct{ id, x string }{{"5a", "nodes"}, {"5b", "delta"}, {"5c", "cS%"}, {"5d", "flows/port"}} {
		t.Run(fig.id, func(t *testing.T) {
			rows := readResults(t, fig.id)
			if len(rows) < 5 {
				t.Fatalf("fig%s.csv: want a sweep of at least five points, got %v", fig.id, rows)
			}
			for _, row := range rows {
				if len(row) != 4 {
					t.Fatalf("fig%s.csv row %v: want %s, Octopus, Eclipse-Based, UB", fig.id, row, fig.x)
				}
			}
			each := func(check func(row []float64) error) func([][]float64) error {
				return func(rows [][]float64) error {
					for _, row := range rows {
						if err := check(row); err != nil {
							return fmt.Errorf("%s=%v: %v", fig.x, row[0], err)
						}
					}
					return nil
				}
			}
			assertClauses(t, fig.x, rows, []clause{
				{"Octopus ≥ 93", each(func(row []float64) error {
					if row[1] < 93 {
						return fmt.Errorf("Octopus utilizes %.4f%%", row[1])
					}
					return nil
				}), map[string]func([][]float64, int){
					"Octopus lowered to 92.9": func(r [][]float64, i int) { r[i][1] = 92.9 },
				}},
				{"UB ≥ 99.3", each(func(row []float64) error {
					if row[3] < 99.3 {
						return fmt.Errorf("UB utilizes %.4f%%", row[3])
					}
					return nil
				}), map[string]func([][]float64, int){
					"UB lowered to 99.29": func(r [][]float64, i int) { r[i][3] = 99.29 },
				}},
				{"Eclipse-Based inside 58–70", each(func(row []float64) error {
					if row[2] < 58 || row[2] > 70 {
						return fmt.Errorf("Eclipse-Based utilizes %.4f%%, outside [58, 70]", row[2])
					}
					return nil
				}), map[string]func([][]float64, int){
					"Eclipse-Based lowered to 57.9": func(r [][]float64, i int) { r[i][2] = 57.9 },
					"Eclipse-Based raised to 70.1":  func(r [][]float64, i int) { r[i][2] = 70.1 },
				}},
				{"Octopus − Eclipse-Based ≥ 30", each(func(row []float64) error {
					if lead := row[1] - row[2]; lead < 30 {
						return fmt.Errorf("Octopus %.4f leads Eclipse-Based %.4f by %.4f points", row[1], row[2], lead)
					}
					return nil
				}), map[string]func([][]float64, int){
					"Eclipse-Based raised to Octopus − 29.9": func(r [][]float64, i int) { r[i][2] = r[i][1] - 29.9 },
				}},
			})
		})
	}
}

// clause is one claim over a results CSV: holds checks it, and each
// mutation, applied to a copy at row i, must break it.
type clause struct {
	name      string
	holds     func(rows [][]float64) error
	mutations map[string]func(rows [][]float64, i int)
}

// assertClauses requires every clause to hold on rows and to fail on a
// copy with any one of its mutations applied at any row; x names the
// CSV's first column in messages.
func assertClauses(t *testing.T, x string, rows [][]float64, clauses []clause) {
	t.Helper()
	for _, c := range clauses {
		if err := c.holds(rows); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for what, mutate := range c.mutations {
			for i := range rows {
				broken := make([][]float64, len(rows))
				for j := range rows {
					broken[j] = slices.Clone(rows[j])
				}
				mutate(broken, i)
				if c.holds(broken) == nil {
					t.Errorf("%s: %s=%v: %s and the clause still holds", c.name, x, rows[i][0], what)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	sc := tiny()
	a, err := Run("4b", sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("4b", sc)
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.Rows {
		for c := range a.Rows[r].Values {
			if a.Rows[r].Values[c] != b.Rows[r].Values[c] {
				t.Fatalf("nondeterministic at row %d col %d: %f vs %f",
					r, c, a.Rows[r].Values[c], b.Rows[r].Values[c])
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "Test", XLabel: "x", YLabel: "y",
		Series: []string{"A", "BBBB"},
		Rows: []Row{
			{X: 1, Values: []float64{12.345, 6}},
			{X: 20, Values: []float64{1, 99.9}},
		},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# t — Test") || !strings.Contains(out, "12.35") {
		t.Fatalf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // 2 comment lines + header + 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: header and rows have equal rendered width.
	if len(lines[2]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		XLabel: "x", Series: []string{"A", "B"},
		Rows: []Row{{X: 1.5, Values: []float64{2, 3}}},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "x,A,B\n1.5,2.0000,3.0000\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestScalePresets(t *testing.T) {
	full, quick := Full(), Quick()
	if full.Nodes != 100 || full.Window != 10000 || full.Delta != 20 || full.Instances != 10 {
		t.Fatalf("full preset = %+v", full)
	}
	if quick.Nodes >= full.Nodes || quick.Window >= full.Window {
		t.Fatal("quick preset not smaller than full")
	}
	for _, sc := range []Scale{full, quick} {
		if len(sc.NodeSweep) == 0 || len(sc.DeltaSweep) == 0 || len(sc.SkewSweep) == 0 ||
			len(sc.SparsitySweep) == 0 || len(sc.HopSweep) == 0 || len(sc.TimeNodeSweep) == 0 {
			t.Fatalf("%s preset has empty sweeps", sc.Name)
		}
	}
}

func TestAveragePointPropagatesErrors(t *testing.T) {
	sc := tiny()
	if _, err := averagePoint(sc, 1, 1, func(rng *rand.Rand) ([]float64, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("error not propagated")
	}
	// Wrong arity is caught.
	if _, err := averagePoint(sc, 1, 2, func(rng *rand.Rand) ([]float64, error) {
		return []float64{1}, nil
	}); err == nil {
		t.Fatal("arity mismatch not caught")
	}
	// Averaging works.
	vals, err := averagePoint(sc, 1, 1, func(rng *rand.Rand) ([]float64, error) {
		return []float64{10}, nil
	})
	if err != nil || vals[0] != 10 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
}

func TestAlgorithmNamesMatchRegistry(t *testing.T) {
	// The experiment layer keeps no roster of its own: the figure table
	// names algorithms by registry spec, so every name it uses must resolve.
	for _, n := range []string{"octopus", "octopus-g", "octopus-b", "octopus-e",
		"octopus-plus", "octopus-random", "eclipse-based", "eclipse-pp",
		"rotornet", "ub"} {
		if _, ok := algo.Lookup(n); !ok {
			t.Errorf("figure-dispatched algorithm %q not in registry", n)
		}
	}
}
