package algo

import "testing"

func TestParseSpecRedundantKeys(t *testing.T) {
	a, p, err := ParseSpec("octopus:red=3,crit=0.5,stretch=1.5", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "octopus" {
		t.Fatalf("resolved %q", a.Name())
	}
	if p.Redundancy != 3 || p.CritFrac != 0.5 || p.Stretch != 1.5 {
		t.Fatalf("params not applied: %+v", p)
	}
	if k, crit, stretch := RedundancyKnobs(Params{CritFrac: 0.25}); k != DefaultRedundancy || crit != 0.25 || stretch != DefaultStretch {
		t.Fatalf("knobs %d, %v, %v; want the defaults beside crit 0.25", k, crit, stretch)
	}
	if _, _, err := ParseSpec("octopus:crit=x", Params{}); err == nil {
		t.Fatal("malformed crit value accepted")
	}
}
