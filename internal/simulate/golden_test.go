package simulate

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replay_golden.json from the current simulator")

// replayFingerprint replays the property tests' random scenario of one seed
// in every replay mode and hashes the complete Results.
func replayFingerprint(t *testing.T, seed int64) string {
	g, load, sch := randomScenario(seed)
	h := sha256.New()
	for _, opt := range []Options{
		{},
		{MultiHop: true, TrackBuffers: true},
		{Window: 25, TrackFlows: true},
		{Epsilon64: 1 + int(seed%31), TrackBuffers: true, TrackFlows: true},
		{MultiHop: true, Epsilon64: 7, Window: 40},
	} {
		res, err := Run(g, load, sch, opt)
		if err != nil {
			t.Fatalf("seed %d %+v: %v", seed, opt, err)
		}
		// fmt prints maps in key order. The golden was written while Result
		// ended with four copy-group fields, which mirrored Delivered and
		// TotalPackets and read 0 on every load without copy groups: they
		// are printed as they were.
		line := fmt.Sprintf("%+v", *res)
		fmt.Fprintf(h, "%s UniqueDelivered:%d UniqueTotal:%d DupHops:0 DupPsi:0}\n",
			line[:len(line)-1], res.Delivered, res.TotalPackets)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestReplayGolden pins every Result field on 300 seeds of the property
// corpus to what the simulator produced when its queues were a map keyed by
// edge (the golden file was written by that version and has not changed):
// indexing queues by dense link id is a change of layout only.
func TestReplayGolden(t *testing.T) {
	const path = "testdata/replay_golden.json"
	got := map[string]string{}
	for seed := int64(1); seed <= 300; seed++ {
		got[fmt.Sprint(seed)] = replayFingerprint(t, seed)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d seeds, test replays %d", len(want), len(got))
	}
	for seed, fp := range got {
		if want[seed] != fp {
			t.Errorf("seed %s: replay fingerprint %s, golden %s", seed, fp, want[seed])
		}
	}
}
