package experiment

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"octopus/internal/algo"
	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/fault"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// The proactive-vs-reactive showdown runs at a fixed geometry, independent
// of Scale (which still controls instances, workers, and seed): the
// committed failure traces below are tied to this fabric and epoch length,
// so scaling the network would silently decouple the failures from the
// topology they were generated for.
const (
	redNodes      = 24  // ChordRing(24, 2, 5): out-degree 3, up to 3 disjoint paths
	redEpochW     = 120 // epoch window in slots; trace bursts straddle its boundaries
	redDelta      = 8   // reconfiguration delay
	redLoadWindow = 60  // synthetic load sized to half the epoch: ~2x headroom
	redCritFrac   = 0.5 // fraction of flows marked critical (largest first)
	redStretch    = 2.0 // disjoint-alternate stretch cap
	redHorizon    = 4   // "on time" = delivered within the first 4 epochs
	redMaxEpochs  = 8   // hard cap so no arm runs unbounded
)

//go:generate go run testdata/redundancy/gen.go

//go:embed testdata/redundancy/trace*.json
var redTraceFS embed.FS

// redTraces parses the committed correlated-failure traces once, sorted by
// file name so the per-instance choice is deterministic.
var redTraces = sync.OnceValues(func() ([]*fault.Trace, error) {
	entries, err := redTraceFS.ReadDir("testdata/redundancy")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var traces []*fault.Trace
	for _, name := range names {
		raw, err := redTraceFS.ReadFile("testdata/redundancy/" + name)
		if err != nil {
			return nil, err
		}
		tr, err := fault.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("experiment: trace %s: %w", name, err)
		}
		traces = append(traces, tr)
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("experiment: no committed redundancy traces")
	}
	return traces, nil
})

// onTimeFraction is the deduplicated fraction delivered within the first
// redHorizon epochs.
func onTimeFraction(res *engine.RunResult) float64 {
	if res.UniqueSubmitted == 0 {
		return 0
	}
	onTime := 0
	for _, ep := range res.Epochs {
		if ep.Epoch < redHorizon {
			onTime += ep.UniqueDelivered
		}
	}
	return float64(onTime) / float64(res.UniqueSubmitted)
}

// redundancyShowdown is the proactive-vs-reactive fault showdown: the same
// synthetic load on the same degraded fabric under four protection arms —
// no protection, reactive repair only, proactive k-disjoint copies only,
// and both — replayed over committed correlated-failure traces. The sweep
// value is the copy count k; the last series reports the ψ cost of
// proactive protection as the overhead of "both" relative to
// reactive-only. At k=1 proactive provisioning is the identity, so the
// first row doubles as a live check that the arms collapse pairwise.
func redundancyShowdown(sc Scale, in instance, rng *rand.Rand) ([]float64, error) {
	traces, err := redTraces()
	if err != nil {
		return nil, err
	}
	tr := traces[rng.Intn(len(traces))]
	g := graph.ChordRing(redNodes, 2, 5)
	load, err := traffic.Synthetic(g, traffic.DefaultSyntheticParams(redNodes, redLoadWindow), rng)
	if err != nil {
		return nil, err
	}
	// Provision the proactive arms: largest-half flows get up to k
	// pairwise edge-disjoint route copies, expanded into per-copy flows
	// tied together by the redundancy group map.
	expanded, red := algo.ProvisionRedundant(g, load, algo.Params{Redundancy: in.x, CritFrac: redCritFrac, Stretch: redStretch})
	arms, err := engine.Showdown(g, load, expanded, red, engine.Config{
		Core:  core.Options{Window: redEpochW, Delta: redDelta, Matcher: sc.Matcher},
		Trace: tr,
	}, redMaxEpochs)
	if err != nil {
		return nil, err
	}
	none, reactive, proactive, both := arms[0], arms[1], arms[2], arms[3]
	overhead := 1.0
	if reactive.Psi > 0 {
		overhead = float64(both.Psi) / float64(reactive.Psi)
	}
	return []float64{
		none.UniqueDeliveredFraction() * 100,
		reactive.UniqueDeliveredFraction() * 100,
		proactive.UniqueDeliveredFraction() * 100,
		both.UniqueDeliveredFraction() * 100,
		onTimeFraction(both) * 100,
		overhead,
	}, nil
}
