package experiment

import "testing"

func TestExtensionIDs(t *testing.T) {
	ids := ExtensionIDs()
	want := []string{"ext-adaptive", "ext-backtrack", "ext-buffers", "ext-eclipsepp", "ext-epsilon", "ext-makespan", "ext-ports", "ext-redundancy", "ext-solstice"}
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
