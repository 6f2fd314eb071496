package experiment

import "testing"

// TestExtRedundancyShowdown pins the acceptance ordering of the
// proactive-vs-reactive showdown on the committed failure traces: adding a
// protection layer never loses packets (both >= reactive-only >= none,
// proactive-only >= none), proactive copies cost real schedule effort
// (psi overhead >= 1), and at k=1 provisioning is the identity so the arms
// collapse pairwise.
func TestExtRedundancyShowdown(t *testing.T) {
	sc := tiny()
	tab, err := Run("ext-redundancy", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (k = 1..3)", len(tab.Rows))
	}
	const eps = 1e-9
	for _, row := range tab.Rows {
		none, reactive, proactive, both := row.Values[0], row.Values[1], row.Values[2], row.Values[3]
		onTime, overhead := row.Values[4], row.Values[5]
		if reactive < none-eps {
			t.Errorf("k=%v: reactive-only %.2f below none %.2f", row.X, reactive, none)
		}
		if both < reactive-eps {
			t.Errorf("k=%v: both %.2f below reactive-only %.2f", row.X, both, reactive)
		}
		if proactive < none-eps {
			t.Errorf("k=%v: proactive-only %.2f below none %.2f", row.X, proactive, none)
		}
		if onTime > both+eps {
			t.Errorf("k=%v: on-time %.2f above total %.2f", row.X, onTime, both)
		}
		if overhead < 1-eps {
			t.Errorf("k=%v: psi overhead %.3f below 1", row.X, overhead)
		}
	}
	// k=1: no copies are provisioned, so the proactive arms are the same
	// runs as their unprotected counterparts — exactly, not approximately.
	k1 := tab.Rows[0]
	if k1.Values[2] != k1.Values[0] || k1.Values[3] != k1.Values[1] {
		t.Errorf("k=1 arms do not collapse pairwise: %v", k1.Values)
	}
	if k1.Values[5] != 1 {
		t.Errorf("k=1 psi overhead = %v, want exactly 1", k1.Values[5])
	}
	// The committed traces must actually bite: an unprotected run on a
	// degraded fabric cannot deliver everything.
	for _, row := range tab.Rows {
		if row.Values[0] >= 100 {
			t.Errorf("k=%v: none arm delivered 100%% — the failure traces changed nothing", row.X)
		}
	}
}
