package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"octopus/internal/algo"
)

// TestQuickTablesGolden pins every figure and extension at Quick() to the
// CSV bytes the hand-written runners produced before the figure layer
// became a table. Fig 10a is wall-clock, so only its shape is held.
func TestQuickTablesGolden(t *testing.T) {
	values := regexp.MustCompile(`,[0-9.]+`)
	for _, id := range append(FigureIDs(), ExtensionIDs()...) {
		tab, err := Run(id, Quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := tab.CSV(&buf); err != nil {
			t.Fatal(err)
		}
		got := buf.Bytes()
		want, err := os.ReadFile(filepath.Join("testdata", "quick", "fig"+id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if id == "10a" {
			got, want = values.ReplaceAll(got, []byte(",#")), values.ReplaceAll(want, []byte(",#"))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: table differs from testdata/quick:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// TestFigureTableWellFormed checks the figure table itself: unique IDs,
// labelled series, and every spec resolving against the registry at every
// sweep value of every preset.
func TestFigureTableWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, f := range figures {
		if f.id == "" || seen[f.id] {
			t.Errorf("figure ID %q empty or duplicated", f.id)
		}
		seen[f.id] = true
		if f.title == "" || f.xlabel == "" || f.ylabel == "" || len(f.series) == 0 {
			t.Errorf("figure %s: missing title, axis label or series", f.id)
		}
		for _, s := range f.series {
			if s.label == "" {
				t.Errorf("figure %s: series without a label", f.id)
			}
			if f.point != nil || s.bound != nil {
				if s.spec != "" || s.pick != nil {
					t.Errorf("figure %s series %s: spec/pick beside a custom value", f.id, s.label)
				}
				continue
			}
			if s.pick == nil {
				t.Errorf("figure %s series %s: no metric", f.id, s.label)
			}
			for _, sc := range []Scale{Quick(), Full(), tiny()} {
				for _, x := range f.xs(sc) {
					if _, _, err := algo.ParseSpec(s.specAt(x), algo.Params{}); err != nil {
						t.Errorf("figure %s series %s at x=%d: %v", f.id, s.label, x, err)
					}
				}
			}
		}
	}
}

// TestExperimentsTablesMatchCSVs holds EXPERIMENTS.md to the campaign's
// data: the table under each "### <id> — …" heading must be
// results/fig<id>.csv at the precision the document prints, and every CSV
// must have its table.
func TestExperimentsTablesMatchCSVs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`^### (\S+) — `)
	tables := make(map[string][][]string)
	id := ""
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			id = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				id = m[1]
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		tables[id] = append(tables[id], cells)
	}
	csvs, err := filepath.Glob(filepath.Join("..", "..", "results", "fig*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) != len(figures) {
		t.Errorf("results/ holds %d CSVs, the figure table %d rows", len(csvs), len(figures))
	}
	for _, path := range csvs {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "fig"), ".csv")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		doc := tables[id]
		if len(doc) != len(lines) {
			t.Errorf("%s: EXPERIMENTS.md has %d table rows, %s has %d", id, len(doc), path, len(lines))
			continue
		}
		for r, line := range lines {
			want := strings.Split(line, ",")
			if len(doc[r]) != len(want) {
				t.Errorf("%s row %d: %d columns in EXPERIMENTS.md, %d in the CSV", id, r, len(doc[r]), len(want))
				continue
			}
			for c := range want {
				if r > 0 && c > 0 { // a value: print it the way the document does
					v, err := strconv.ParseFloat(want[c], 64)
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					dec := 0
					if _, frac, ok := strings.Cut(doc[r][c], "."); ok {
						dec = len(frac)
					}
					want[c] = strconv.FormatFloat(v, 'f', dec, 64)
				}
				if doc[r][c] != want[c] {
					t.Errorf("%s row %d col %d: EXPERIMENTS.md says %q, the CSV %q", id, r, c, doc[r][c], want[c])
				}
			}
		}
	}
}
