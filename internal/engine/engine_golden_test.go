package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"octopus/internal/core"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// updateEngineGolden regenerates testdata/engine_golden.json from the
// current implementation. The file was captured from the pre-engine batch
// loops (PR 8 extracted internal/engine); regenerating it is only
// legitimate for an intended behavior change of the online layer.
var updateEngineGolden = flag.Bool("update-engine-golden", false, "rewrite the engine-extraction golden file")

// goldEpoch is one epoch's full stat fingerprint, including a hash of the
// planned schedule's JSON bytes (empty when the epoch planned nothing).
type goldEpoch struct {
	Epoch             int    `json:"epoch"`
	Arrived           int    `json:"arrived"`
	Offered           int    `json:"offered"`
	Delivered         int    `json:"delivered"`
	Backlog           int    `json:"backlog"`
	FailedLinks       int    `json:"failed_links"`
	FailedNodes       int    `json:"failed_nodes"`
	Rerouted          int    `json:"rerouted"`
	Stranded          int    `json:"stranded"`
	Dropped           int    `json:"dropped"`
	SurvivedRedundant int    `json:"survived_redundant"`
	UniqueDelivered   int    `json:"unique_delivered"`
	RefDelivered      int    `json:"ref_delivered"`
	SchedFP           string `json:"sched_fp,omitempty"`
}

// goldRun fingerprints one full online run.
type goldRun struct {
	Delivered         int         `json:"delivered"`
	Total             int         `json:"total"`
	Dropped           int         `json:"dropped"`
	Psi               int64       `json:"psi"`
	UniqueDelivered   int         `json:"unique_delivered"`
	UniqueTotal       int         `json:"unique_total"`
	SurvivedRedundant int         `json:"survived_redundant"`
	RefDelivered      int         `json:"ref_delivered"`
	Completion        map[int]int `json:"completion"`
	Epochs            []goldEpoch `json:"epochs"`
}

func schedFP(t *testing.T, plan *core.Result) string {
	t.Helper()
	if plan == nil || plan.Schedule == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := plan.Schedule.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// goldPlain fingerprints a failure-free run the way the golden file holds
// one: the plain loop it was captured from reported neither ψ nor the
// deduplicated counts, so they read zero, and ref_delivered -1.
func goldPlain(t *testing.T, res *RunResult) goldRun {
	t.Helper()
	g := goldFaulty(t, res, nil)
	g.Psi, g.UniqueDelivered, g.UniqueTotal = 0, 0, 0
	for i := range g.Epochs {
		g.Epochs[i].UniqueDelivered = 0
	}
	return g
}

// goldFaulty fingerprints a fault-tolerant run. ref is the failure-free
// run of the same arrivals, whose per-epoch delivery the golden file holds
// as ref_delivered (0 past its last epoch); nil reads -1 throughout.
func goldFaulty(t *testing.T, res, ref *RunResult) goldRun {
	t.Helper()
	refDelivered := func(epoch int) int {
		switch {
		case ref == nil:
			return -1
		case epoch < len(ref.Epochs):
			return ref.Epochs[epoch].Delivered
		}
		return 0
	}
	g := goldRun{
		Delivered:         res.Delivered,
		Total:             res.Submitted,
		Dropped:           res.Dropped,
		Psi:               res.Psi,
		UniqueDelivered:   res.UniqueDelivered,
		UniqueTotal:       res.UniqueSubmitted,
		SurvivedRedundant: res.SurvivedRedundant,
		Completion:        res.Completion,
		RefDelivered:      -1,
	}
	if ref != nil {
		g.RefDelivered = ref.Delivered
	}
	for i, ep := range res.Epochs {
		g.Epochs = append(g.Epochs, goldEpoch{
			Epoch:             ep.Epoch,
			Arrived:           ep.Arrived,
			Offered:           ep.Offered,
			Delivered:         ep.Delivered,
			Backlog:           ep.Backlog,
			FailedLinks:       ep.FailedLinks,
			FailedNodes:       ep.FailedNodes,
			Rerouted:          ep.Rerouted,
			Stranded:          ep.Stranded,
			Dropped:           ep.Dropped,
			SurvivedRedundant: ep.SurvivedRedundant,
			UniqueDelivered:   ep.UniqueDelivered,
			RefDelivered:      refDelivered(i),
			SchedFP:           schedFP(t, ep.Plan),
		})
	}
	return g
}

// TestEngineExtractionGolden pins Run — failure-free, fault-tolerant, and
// over redundancy-expanded arrivals with and without reactive repair —
// bit-identical across the internal/engine extraction: every per-epoch
// stat, every planned schedule (by hash), every completion map, and every
// run total must match the fingerprints captured from the pre-engine
// monolithic loops.
func TestEngineExtractionGolden(t *testing.T) {
	runs := map[string]goldRun{}
	for _, seed := range []int64{3, 11, 27, 42} {
		rng := rand.New(rand.NewSource(seed))
		inst := verify.RandomInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		var arr []Arrival
		for i, f := range inst.Load.Flows {
			f.Routes = f.Routes[:1]
			arr = append(arr, Arrival{Flow: f, At: i * inst.Window / 2})
		}
		tr := randomTrace(inst.G, rng, 3*inst.Window)
		cfg := window(inst.Window, inst.Delta)
		cfg.KeepPlans = true

		plain, err := Run(inst.G, arr, cfg, 0)
		if err != nil {
			t.Fatalf("seed %d: plain: %v", seed, err)
		}
		runs[key(seed, "plain")] = goldPlain(t, plain)

		// The failure-free run above is the fault run's reference.
		res, err := Run(inst.G, arr, faulty(cfg, tr), 0)
		if err != nil {
			t.Fatalf("seed %d: faulty: %v", seed, err)
		}
		runs[key(seed, "faulty")] = goldFaulty(t, res, plain)

		// Redundancy-expanded arrivals over the same trace, with and
		// without the reactive repair arm.
		expanded, groups := traffic.Provision(inst.G, inst.Load, 2, 0.5, 2.0)
		var rarr []Arrival
		for i, f := range expanded.Flows {
			rarr = append(rarr, Arrival{Flow: f, At: i * inst.Window / 3})
		}
		for name, reactive := range map[string]bool{"redundant": true, "proactive": false} {
			rcfg := faulty(cfg, tr)
			rcfg.Red, rcfg.Reactive = groups, reactive
			res, err := Run(inst.G, rarr, rcfg, 0)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			runs[key(seed, name)] = goldFaulty(t, res, nil)
		}
	}

	// Crafted scenarios covering the repair paths the random traces rarely
	// hit: reroute around a dead link, stranded in-flight requeue, drop of
	// an unreachable destination, a jitter-idled epoch, and redundancy
	// copies absorbing a node failure.
	for name, run := range craftedScenarios(t) {
		runs["crafted-"+name] = run
	}

	got, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "engine_golden.json")
	if *updateEngineGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("online runs drifted from the pre-engine golden fingerprints (-update-engine-golden only on an intended change):\n--- want\n%s--- got\n%s",
			clipGold(want), clipGold(got))
	}
}

// craftedScenarios runs the deterministic repair-path scenarios under
// KeepPlans and fingerprints each.
func craftedScenarios(t *testing.T) map[string]goldRun {
	t.Helper()
	out := map[string]goldRun{}
	// withRef runs arr under tr and, as its reference, failure-free.
	withRef := func(g *graph.Digraph, arr []Arrival, tr *fault.Trace, w, d int) goldRun {
		cfg := window(w, d)
		cfg.KeepPlans = true
		res, err := Run(g, arr, faulty(cfg, tr), 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(g, arr, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return goldFaulty(t, res, ref)
	}

	// Reroute around a failed link, with a second flow arriving late.
	g := graph.Complete(4)
	arr := []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 8, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}}, At: 0},
		{Flow: traffic.Flow{ID: 2, Size: 3, Src: 2, Dst: 3, Routes: []traffic.Route{{2, 3}}}, At: 250},
	}
	tr := &fault.Trace{Events: []fault.Event{
		{At: 0, Kind: fault.LinkDown, From: 0, To: 1},
		{At: 300, Kind: fault.LinkUp, From: 0, To: 1},
	}}
	out["reroute"] = withRef(g, arr, tr, 200, 5)

	// Stranded in-flight requeue: one configuration per window, onward
	// link dies after the first hop.
	g = graph.Complete(3)
	arr = []Arrival{{Flow: traffic.Flow{ID: 9, Size: 5, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}}, At: 0}}
	tr = &fault.Trace{Events: []fault.Event{{At: 12, Kind: fault.LinkDown, From: 1, To: 2}}}
	out["stranded"] = withRef(g, arr, tr, 12, 5)

	// Unreachable destination: node 3 down for the whole run.
	g = graph.Complete(4)
	arr = []Arrival{
		{Flow: traffic.Flow{ID: 1, Size: 6, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 3}}}, At: 0},
		{Flow: traffic.Flow{ID: 2, Size: 4, Src: 1, Dst: 2, Routes: []traffic.Route{{1, 2}}}, At: 0},
	}
	tr = &fault.Trace{Events: []fault.Event{{At: 0, Kind: fault.NodeDown, Node: 3}}}
	out["drop"] = withRef(g, arr, tr, 100, 5)

	// Jitter idles epoch 0; traffic delivers afterwards.
	g = graph.Complete(3)
	arr = []Arrival{{Flow: traffic.Flow{ID: 1, Size: 4, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}}, At: 0}}
	tr = &fault.Trace{DeltaJitter: []int{1000}}
	out["jitter"] = withRef(g, arr, tr, 50, 5)

	// Redundant copies absorbing a correlated node burst: two disjoint
	// copies of a critical flow, the primary's relay node dies at slot 0.
	g = graph.Complete(5)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 0, Size: 6, Src: 0, Dst: 4, Routes: []traffic.Route{{0, 1, 4}}},
		{ID: 1, Size: 2, Src: 2, Dst: 3, Routes: []traffic.Route{{2, 3}}},
	}}
	expanded, groups := traffic.Provision(g, load, 2, 0.5, 3.0)
	var rarr []Arrival
	for _, f := range expanded.Flows {
		rarr = append(rarr, Arrival{Flow: f, At: 0})
	}
	tr = fault.CorrelatedTrace(g, []int{1}, 0, 100, 60)
	cfg := faulty(window(40, 4), tr)
	cfg.KeepPlans, cfg.Red, cfg.Reactive = true, groups, false
	res, err := Run(g, rarr, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	out["survive"] = goldFaulty(t, res, nil)
	return out
}

func key(seed int64, mode string) string {
	return "seed" + string(rune('0'+seed/10)) + string(rune('0'+seed%10)) + "-" + mode
}

func clipGold(b []byte) string {
	const n = 3000
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "...\n"
}
