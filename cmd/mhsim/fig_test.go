package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"octopus/internal/experiment"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("25, 50,100")
	if err != nil || !slices.Equal(got, []int{25, 50, 100}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if got, err := parseInts("7"); err != nil || !slices.Equal(got, []int{7}) {
		t.Fatalf("single value: %v, %v", got, err)
	}
	// Each of these once ran a sweep of its leading digits, or of nothing.
	for _, s := range []string{"1e3", "2.5", "25,50x", "", "25,,50", "0", "-3", "25, -50"} {
		if got, err := parseInts(s); err == nil {
			t.Errorf("parseInts(%q) = %v, want an error", s, got)
		}
	}
}

// TestFigPrintsTheTables: mhsim -fig ID -out DIR prints what Table.Render
// prints and writes the bytes Table.CSV writes, for every figure and
// extension at quick scale. Fig 10a is wall-clock, so only its shape is
// held.
func TestFigPrintsTheTables(t *testing.T) {
	for _, id := range slices.Concat(experiment.FigureIDs(), experiment.ExtensionIDs()) {
		dir := t.TempDir()
		var out, errOut bytes.Buffer
		if err := run([]string{"-fig", id, "-out", dir}, &out, &errOut); err != nil {
			t.Fatalf("-fig %s: %v", id, err)
		}
		tab, err := experiment.Run(id, experiment.Quick())
		if err != nil {
			t.Fatal(err)
		}
		var text, csv bytes.Buffer
		if err := tab.Render(&text); err != nil {
			t.Fatal(err)
		}
		text.WriteString("\n")
		if err := tab.CSV(&csv); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "fig"+id+".csv")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if errOut.String() != "wrote "+path+"\n" {
			t.Errorf("-fig %s: stderr %q", id, errOut.String())
		}
		gotText, wantText := out.String(), text.String()
		gotCSV, wantCSV := string(got), csv.String()
		if id == "10a" {
			gotText, wantText = shape(gotText, 3), shape(wantText, 3)
			gotCSV, wantCSV = shape(gotCSV, 1), shape(wantCSV, 1)
		}
		if gotText != wantText {
			t.Errorf("-fig %s printed\n%s\nwant\n%s", id, gotText, wantText)
		}
		if gotCSV != wantCSV {
			t.Errorf("-fig %s wrote\n%s\nwant\n%s", id, gotCSV, wantCSV)
		}
	}
}

// shape keeps the first head lines of s and its line count.
func shape(s string, head int) string {
	lines := strings.Split(s, "\n")
	return strings.Join(lines[:head], "\n") + strings.Repeat("\n", len(lines)-head)
}

// TestFigOverridesOnlyWhatIsSet: under -fig, mhsim's -n, -window, -delta
// and -seed replace the scale's values only when they are on the command
// line, so their planning defaults never leak into a figure.
func TestFigOverridesOnlyWhatIsSet(t *testing.T) {
	fig := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-fig", "4b"}, args...), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	table := func(sc experiment.Scale) string {
		t.Helper()
		tab, err := experiment.Run("4b", sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String() + "\n"
	}
	if got, want := fig(), table(experiment.Quick()); got != want {
		t.Errorf("-fig 4b printed\n%s\nwant the quick scale's\n%s", got, want)
	}
	sc := experiment.Quick()
	sc.Nodes, sc.Window, sc.Seed, sc.Instances, sc.DeltaSweep = 10, 400, 9, 1, []int{2, 5}
	if got, want := fig("-n", "10", "-window", "400", "-seed", "9", "-instances", "1", "-delta-sweep", "2,5"), table(sc); got != want {
		t.Errorf("-fig 4b with overrides printed\n%s\nwant\n%s", got, want)
	}
}

// TestProfilesInEveryMode: -cpuprofile and -memprofile write their files
// whichever command runs.
func TestProfilesInEveryMode(t *testing.T) {
	load := filepath.Join(t.TempDir(), "load.json")
	if err := run(append(goldenArgs, "-emit", load), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-n", "8", "-window", "120", "-delta", "4"},
		{"-n", "8", "-window", "120", "-emit", os.DevNull},
		{"-stats", load},
		{"-fig", "4a"},
	} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
		if err := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), io.Discard, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		for _, path := range []string{cpu, mem} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%v: %s: %v", args, filepath.Base(path), err)
			}
		}
	}
}
