package algo

import (
	"math"
	"strings"
	"testing"

	"octopus/internal/core"
)

func TestParseMatcher(t *testing.T) {
	if m, err := ParseMatcher("exact"); err != nil || m != core.MatcherExact {
		t.Fatalf("exact: %v, %v", m, err)
	}
	if m, err := ParseMatcher("greedy"); err != nil || m != core.MatcherGreedy {
		t.Fatalf("greedy: %v, %v", m, err)
	}
	if _, err := ParseMatcher("hungarian"); err == nil {
		t.Fatal("bogus matcher accepted")
	}
}

func TestParseSpecPlainName(t *testing.T) {
	base := Params{Window: 100, Delta: 5}
	a, p, err := ParseSpec("octopus", base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "octopus" || p != base {
		t.Fatalf("got %s, %+v", a.Name(), p)
	}
}

func TestParseSpecOptions(t *testing.T) {
	base := Params{Window: 100, Delta: 5}
	a, p, err := ParseSpec("rotornet:slots=50", base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "rotornet" || p.SlotsPerMatching != 50 || p.Delta != 5 {
		t.Fatalf("got %s, %+v", a.Name(), p)
	}
	_, p, err = ParseSpec("octopus-e:eps64=8,matcher=greedy", base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Epsilon64 != 8 || p.Window != 100 || p.Matcher != core.MatcherGreedy {
		t.Fatalf("got %+v", p)
	}
	_, p, err = ParseSpec("octopus-plus:backtrack=false", base)
	if err != nil {
		t.Fatal(err)
	}
	if !p.DisableBacktrack {
		t.Fatalf("got %+v", p)
	}
}

func TestParseSpecErrors(t *testing.T) {
	base := Params{}
	cases := []struct {
		spec string
		want string
	}{
		{"bogus", "unknown algorithm"},
		{"", "unknown algorithm"},
		{"maxweight", "unknown algorithm"},
		{"solstice", "unknown algorithm"},
		{"octopus:", "malformed option"},
		{"octopus:eps64", "malformed option"},
		{"octopus:eps64=", "malformed option"},
		{"octopus:eps64=abc", "want an integer"},
		{"octopus-plus:backtrack=maybe", "want a boolean"},
		{"octopus:crit=fast", "want a number"},
		// A removed entry and its key are unknown, not ignored.
		{"hybrid", `unknown algorithm "hybrid"`},
		{"octopus:rate=0.1", `unknown option "rate"`},
		{"octopus:matcher=hungarian", "unknown matcher"},
		{"octopus:matcher=dense", `unknown matcher "dense" (want exact or greedy)`},
		{"octopus:matcher=sparse", `unknown matcher "sparse" (want exact or greedy)`},
		{"octopus:matcher=warm", `unknown matcher "warm" (want exact or greedy)`},
		{"octopus:color=red", "unknown option"},
		{"octopus:hold=1", `unknown option "hold"`},
		{"octopus:hys64=96", `unknown option "hys64"`},
		// The instance is set once, by the entry point's own flags.
		{"octopus:window=500", `unknown option "window"`},
		{"octopus:delta=20", `unknown option "delta"`},
		{"octopus-random:seed=7", `unknown option "seed"`},
		{"octopus:ports=2", `unknown option "ports"`},
		// Chaining is the chained entry; the trace audit is set in code.
		{"octopus:multihop=true", `unknown option "multihop"`},
		{"octopus-plus:keeptrace=true", `unknown option "keeptrace"`},
	}
	for _, tc := range cases {
		_, _, err := ParseSpec(tc.spec, base)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want substring %q", tc.spec, err, tc.want)
		}
	}
	// The unknown-algorithm error lists the valid names.
	_, _, err := ParseSpec("bogus", base)
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error does not list %q: %v", n, err)
		}
	}
}

// TestParseSpecRefusesUnreadKeys: a key the named entry never reads is an
// error that lists the keys it does read. Each of these specs once printed
// the result of the bare name.
func TestParseSpecRefusesUnreadKeys(t *testing.T) {
	base := Params{Window: 200, Delta: 5}
	for _, tc := range []struct{ spec, reads string }{
		{"octopus:slots=7", "crit, eps64, matcher, par, red, sample, stretch"},
		{"octopus:pods=4", "crit, eps64, matcher, par, red, sample, stretch"},
		{"octopus:backtrack=false", "crit, eps64, matcher, par, red, sample, stretch"},
		{"octopus-g:matcher=exact", "crit, eps64, par, red, sample, stretch"},
		{"chained:matcher=greedy", "crit, eps64, par, red, sample, stretch"},
		{"rotornet:pods=2", "sample, slots"},
		{"eclipse-based:eps64=64", "matcher, sample"},
		{"eclipse-pp:par=2", "matcher, sample"},
		{"ub:crit=0.5", "matcher, sample"},
	} {
		name, opt, _ := strings.Cut(tc.spec, ":")
		key, _, _ := strings.Cut(opt, "=")
		want := name + ` never reads option "` + key + `" (it reads: ` + tc.reads + ")"
		if _, _, err := ParseSpec(tc.spec, base); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want substring %q", tc.spec, err, want)
		}
	}
	// The fault pipeline's copy knobs belong to the core planners alone.
	for _, a := range Registry() {
		for _, kv := range []string{"red=2", "crit=0.5", "stretch=1.5"} {
			if _, _, err := ParseSpec(a.Name()+":"+kv, base); (err == nil) != IsCore(a) {
				t.Errorf("%s:%s: error %v, core planner %v", a.Name(), kv, err, IsCore(a))
			}
		}
	}
	// Specs the repository spells out (figures, CI, README, benchmark).
	for _, spec := range []string{
		"octopus-e:eps64=8", "octopus-b:matcher=greedy", "chained:eps64=8,par=2",
		"octopus-plus:backtrack=false", "rotornet:slots=50",
		"octopus-sharded:pods=4,par=2",
		"octopus:red=2,crit=0.5", "octopus-g:sample=1/64", "ub:matcher=greedy", "eclipse-pp:sample=8",
	} {
		if _, _, err := ParseSpec(spec, base); err != nil {
			t.Errorf("%q: %v", spec, err)
		}
	}
}

// TestSpecNumbersFailClosed: a number key takes only finite values. The
// counts par, pods, slots and red and the factor stretch take no negative
// value, crit only a fraction in [0, 1]; 0 is still the default.
func TestSpecNumbersFailClosed(t *testing.T) {
	base := Params{Window: 200, Delta: 5}
	for _, tc := range []struct{ spec, want string }{
		{"octopus:crit=NaN", "want a number (finite)"},
		{"octopus:stretch=+Inf", "want a number (finite)"},
		{"octopus:stretch=-Inf", "want a number (finite)"},
		// Out of range: each once fell back to a default or the identity.
		{"octopus:par=-1", "want an integer >= 0"},
		{"rotornet:slots=-1", "want an integer >= 0"},
		{"octopus:red=-1,crit=0.5", "want an integer >= 0"},
		{"octopus:crit=2", "want a number in [0, 1]"},
		{"octopus:crit=-1", "want a number in [0, 1]"},
		{"octopus:stretch=-1", "want a number in [0, +Inf]"},
		{"octopus-sharded:pods=-3", "want an integer >= 0"},
	} {
		if _, _, err := ParseSpec(tc.spec, base); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want substring %q", tc.spec, err, tc.want)
		}
	}
	// 0 keeps meaning the default, and the benchmark's specs still parse.
	for _, spec := range []string{
		"octopus:par=0", "rotornet:slots=0", "octopus:red=0,crit=0,stretch=0",
		"octopus:crit=1", "octopus-sharded:pods=0",
		"octopus", "octopus:matcher=greedy", "octopus-sharded:matcher=greedy,pods=8",
	} {
		if _, _, err := ParseSpec(spec, base); err != nil {
			t.Errorf("%q: %v", spec, err)
		}
	}
}

// TestSpecKeysCoverSetter keeps the documented key list in sync with the
// setter: every listed key must parse, and the error for an unknown key
// must list them all.
func TestSpecKeysCoverSetter(t *testing.T) {
	vals := map[string]string{
		"matcher": "greedy", "backtrack": "false", "crit": "0.5",
	}
	for _, key := range specKeys {
		val, ok := vals[key]
		if !ok {
			val = "3"
		}
		p := Params{}
		if err := p.set(key, val); err != nil {
			t.Errorf("documented key %s rejected: %v", key, err)
		}
	}
	p := Params{}
	err := p.set("nope", "1")
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, key := range specKeys {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("unknown-key error does not list %s: %v", key, err)
		}
	}
}

// FuzzParseSpec: a spec string comes straight from the command line.
// ParseSpec must not panic on any input, and every numeric field of a spec
// it accepts is in its documented range.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"octopus", "octopus:par=4", "octopus-g:matcher=exact", "octopus:stretch=0.5",
		"octopus:red=2,crit=0.5,stretch=1.5", "octopus-sharded:pods=8,par=2",
		"rotornet:slots=3", "octopus:sample=1/64", "octopus-e:eps64=8", "chained:eps64=8,par=2",
		"octopus:crit=2", "octopus:crit=NaN", "octopus:par=-1", "octopus:=", "nope:x=1", ":",
		"octopus:ports=2,multihop=true", "octopus-plus:keeptrace=true", "chained:matcher=greedy",
	} {
		f.Add(seed)
	}
	base := Params{Window: 200, Delta: 5, Ports: 2}
	f.Fuzz(func(t *testing.T, spec string) {
		_, p, err := ParseSpec(spec, base)
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		switch {
		case p.Parallelism < 0, p.Pods < 0, p.SlotsPerMatching < 0, p.Redundancy < 0, p.FlightSample < 0:
			t.Fatalf("%q: negative count in %+v", spec, p)
		case !finite(p.CritFrac) || p.CritFrac < 0 || p.CritFrac > 1:
			t.Fatalf("%q: crit %v outside [0, 1]", spec, p.CritFrac)
		case !finite(p.Stretch) || p.Stretch < 0:
			t.Fatalf("%q: stretch %v", spec, p.Stretch)
		case p.Window != base.Window || p.Delta != base.Delta || p.Ports != base.Ports:
			t.Fatalf("%q: the spec changed the instance: %+v", spec, p)
		}
	})
}
