package algo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// pinPoint is one instance of testdata/pins.json with the runs pinned on
// it. Pods == 0 is the paper's Fig-4/10 regime: graph.Complete(Nodes)
// under traffic.Synthetic with the §8 defaults. Pods > 0 is the pod fabric
// under traffic.PodSynthetic, scaled to Flows flows.
type pinPoint struct {
	Nodes   int      `json:"nodes"`
	Pods    int      `json:"pods"`
	Flows   int      `json:"flows"`
	Window  int      `json:"window"`
	Delta   int      `json:"delta"`
	Matcher string   `json:"matcher"`
	Seed    int64    `json:"seed"`
	Runs    []pinRun `json:"runs"`

	base Params // what every spec of the point overlays; set by parsePins
}

// pinRun is one row: a registry spec, the fabric's ports per node (0 or 1
// = single-port) and the exact ψ (traffic.WeightScale units) and delivered
// packets it must produce on its point.
type pinRun struct {
	Spec      string `json:"spec"`
	Ports     int    `json:"ports"`
	Psi       int64  `json:"psi"`
	Delivered int    `json:"delivered"`
}

// name is the row's subtest name: the spec, under ports=K when K > 1.
func (r *pinRun) name() string {
	if r.Ports > 1 {
		return fmt.Sprintf("%s/ports=%d", r.Spec, r.Ports)
	}
	return r.Spec
}

func (pt *pinPoint) name() string {
	if pt.Pods > 0 {
		return fmt.Sprintf("pods%d-n%d", pt.Pods, pt.Nodes)
	}
	return fmt.Sprintf("n%d", pt.Nodes)
}

// heavy points (the n = 512 exact run, ≈ 15 s, and the 1M-flow pod runs,
// ≈ 4 s and ≈ 600 MiB) skip under -short; CI's race step skips them by
// name.
func (pt *pinPoint) heavy() bool { return pt.Nodes >= 512 }

// psiUntracked names the algorithms whose Outcome.Psi is 0 by design:
// eclipse-pp's paths may leave the declared route, so it reports no ψ
// (DESIGN §2 S12). Only their rows may pin ψ 0, and TestPins then holds
// it at 0.
var psiUntracked = map[string]bool{"eclipse-pp": true}

// parsePins decodes a pin file and fails closed: a file that pins nothing,
// or holds a row TestPins could not execute, is an error rather than a
// vacuous pass.
func parsePins(raw []byte) ([]pinPoint, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var points []pinPoint
	if err := dec.Decode(&points); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, errors.New("no points")
	}
	for i := range points {
		pt := &points[i]
		m, err := ParseMatcher(pt.Matcher)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pt.name(), err)
		}
		pt.base = Params{Window: pt.Window, Delta: pt.Delta, Matcher: m}
		if len(pt.Runs) == 0 {
			return nil, fmt.Errorf("%s: no runs", pt.name())
		}
		for _, run := range pt.Runs {
			a, _, err := ParseSpec(run.Spec, pt.base)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", pt.name(), err)
			}
			if run.Psi < 0 || run.Psi == 0 && !psiUntracked[a.Name()] || run.Delivered <= 0 {
				return nil, fmt.Errorf("%s/%s: pins psi %d, delivered %d", pt.name(), run.Spec, run.Psi, run.Delivered)
			}
		}
	}
	return points, nil
}

// instance builds the point's fabric and load, deterministic in Seed.
func (pt *pinPoint) instance() (*graph.Digraph, *traffic.Load, error) {
	rng := rand.New(rand.NewSource(pt.Seed))
	if pt.Pods == 0 {
		g := graph.Complete(pt.Nodes)
		load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(pt.Nodes, pt.Window), rng)
		return g, load, err
	}
	podSize, err := graph.PodDims(pt.Nodes, pt.Pods)
	if err != nil {
		return nil, nil, err
	}
	// Scale the per-pod flow counts to the requested total, keeping the
	// 1:3 large:small mix and every flow non-empty.
	pp := traffic.DefaultPodParams(pt.Pods, podSize, pt.Window)
	perPod := max(4, pt.Flows/pt.Pods)
	pp.LargePerPod = perPod / 4
	pp.SmallPerPod = perPod - perPod/4
	pp.LargeTotal = max(pp.LargeTotal, pp.LargePerPod)
	pp.SmallTotal = max(pp.SmallTotal, pp.SmallPerPod)
	store, err := traffic.PodSynthetic(pp, rng)
	if err != nil {
		return nil, nil, err
	}
	return pp.Fabric(), store.Materialize(nil), nil
}

// TestPins is the repository's schedule-quality pin: it builds every
// instance of testdata/pins.json, runs every spec on it through ParseSpec
// and Run, and compares ψ and delivered to the digit. The planners are
// deterministic in the seed, so a mismatch is a changed schedule, never
// noise. The numbers are never regenerated to make a change pass.
func TestPins(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pins.json"))
	if err != nil {
		t.Fatal(err)
	}
	points, err := parsePins(raw)
	if err != nil {
		t.Fatalf("testdata/pins.json: %v", err)
	}
	for _, pt := range points {
		t.Run(pt.name(), func(t *testing.T) {
			if pt.heavy() && testing.Short() {
				t.Skip("heavy pin point; run without -short")
			}
			g, load, err := pt.instance()
			if err != nil {
				t.Fatal(err)
			}
			if pt.Flows > 0 && len(load.Flows) != pt.Flows {
				t.Fatalf("instance has %d flows, file says %d", len(load.Flows), pt.Flows)
			}
			for _, run := range pt.Runs {
				t.Run(run.name(), func(t *testing.T) {
					a, p, err := ParseSpec(run.Spec, pt.base)
					if err != nil {
						t.Fatal(err)
					}
					p.Ports, p.Rng = run.Ports, rand.New(rand.NewSource(pt.Seed))
					out, err := a.Run(g, load, p)
					if err != nil {
						t.Fatal(err)
					}
					if out.Psi != run.Psi {
						t.Errorf("psi %d, pinned %d", out.Psi, run.Psi)
					}
					if out.Delivered != run.Delivered {
						t.Errorf("delivered %d, pinned %d", out.Delivered, run.Delivered)
					}
				})
			}
		})
	}
}

// TestPinFileFailsClosed: parsePins rejects every shape of file that would
// let TestPins pass without having pinned anything.
func TestPinFileFailsClosed(t *testing.T) {
	const file = `[{"nodes": 8, "window": 100, "delta": 2, "matcher": "exact", "seed": 1, "runs": [%s]}]`
	const run = `{"spec": "octopus", "psi": 1, "delivered": 1}`
	if _, err := parsePins([]byte(fmt.Sprintf(file, run))); err != nil {
		t.Fatalf("well-formed file rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"empty file":    ``,
		"no points":     `[]`,
		"no runs":       fmt.Sprintf(file, ""),
		"unknown algo":  fmt.Sprintf(file, strings.Replace(run, "octopus", "nonesuch", 1)),
		"bad spec key":  fmt.Sprintf(file, strings.Replace(run, "octopus", "octopus:nope=1", 1)),
		"bad matcher":   strings.Replace(fmt.Sprintf(file, run), "exact", "dense", 1),
		"zero psi":      fmt.Sprintf(file, strings.Replace(run, `"psi": 1`, `"psi": 0`, 1)),
		"negative psi":  fmt.Sprintf(file, strings.Replace(strings.Replace(run, `"psi": 1`, `"psi": -1`, 1), "octopus", "eclipse-pp", 1)),
		"missing count": fmt.Sprintf(file, `{"spec": "octopus", "psi": 1}`),
		"stray field":   fmt.Sprintf(file, strings.Replace(run, `"spec"`, `"ns_per_op": 5, "spec"`, 1)),
	} {
		if _, err := parsePins([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
