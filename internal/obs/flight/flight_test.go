package flight

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"octopus/internal/obs"
)

// TestNilRecorderIsNoOp pins the package contract: every method on a nil
// *Recorder is a safe no-op, so "flight off" is the zero value.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Tracks(1) {
		t.Fatal("nil recorder tracks flows")
	}
	if r.Sample() != 0 {
		t.Fatal("nil recorder has a sample rate")
	}
	r.Admit(1, 0, 10, 0, 1)
	r.Planned(1, 0, 3, MatcherGreedy, 10)
	r.Hop(1, 0, 1, 3, 10)
	r.Stranded(1, 0, 1, 2)
	r.Requeued(1, 0, 1, 2)
	r.Repaired(1, 0, 4, 2)
	r.Dedup(1, 0, 5)
	r.Delivered(1, 1, 10)
	r.Completed(1, 1)
	r.Dropped(1, 1, 3)
	r.Cancelled(1, 1, 3)
	if r.Events(1) != nil || r.All() != nil {
		t.Fatal("nil recorder holds events")
	}
	if s := r.Stats(); s != (Snapshot{}) {
		t.Fatalf("nil recorder stats = %+v", s)
	}
	if err := r.WriteLog(nil); err != nil {
		t.Fatal("nil recorder WriteLog errored")
	}
}

// TestLifecycleChain records a full flow lifecycle and checks the event
// chain comes back in order with the right payloads.
func TestLifecycleChain(t *testing.T) {
	r := New(Config{SLOEpochs: 4})
	r.Admit(7, 0, 20, 2, 9)
	r.Planned(7, 1, 3, MatcherGreedy, 20)
	r.Hop(7, 1, 1, 3, 20)
	r.Delivered(7, 2, 8)
	r.Delivered(7, 3, 12) // reaches size 20 → auto-completion
	evs := r.Events(7)
	kinds := make([]Kind, len(evs))
	for i, ev := range evs {
		kinds[i] = ev.Kind
	}
	want := []Kind{KindAdmitted, KindPlanned, KindHop, KindDelivered, KindDelivered, KindCompleted}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events %v, want %v", len(kinds), kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if evs[0].A != 20 || evs[0].B != 2 || evs[0].C != 9 {
		t.Fatalf("admitted payload = %+v", evs[0])
	}
	if evs[1].B != MatcherGreedy {
		t.Fatalf("planned matcher = %d, want greedy", evs[1].B)
	}
	done := evs[len(evs)-1]
	if done.A != 3 { // admitted epoch 0, completed epoch 3
		t.Fatalf("completion latency = %d, want 3", done.A)
	}
	if done.B != 1 { // slack = 4 - 3
		t.Fatalf("slack = %d, want 1", done.B)
	}
	if done.C != 1 {
		t.Fatalf("on-time flag = %d, want 1", done.C)
	}
	s := r.Stats()
	if s.Completed != 1 || s.OnTime != 1 || s.OnTimeFraction != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.CompletionP50 != 3 { // latency 3 lands in bucket le=3
		t.Fatalf("p50 = %d, want 3", s.CompletionP50)
	}
	// A second Completed is idempotent.
	r.Completed(7, 9)
	if got := len(r.Events(7)); got != len(want) {
		t.Fatalf("duplicate completion recorded: %d events", got)
	}
}

// TestSLOMiss pins the late path: completion past the target counts as
// not-on-time with zero slack.
func TestSLOMiss(t *testing.T) {
	r := New(Config{SLOEpochs: 2})
	r.Admit(1, 0, 5, 0, 1)
	r.Delivered(1, 10, 5)
	s := r.Stats()
	if s.Completed != 1 || s.OnTime != 0 || s.OnTimeFraction != 0 {
		t.Fatalf("stats = %+v", s)
	}
	evs := r.Events(1)
	done := evs[len(evs)-1]
	if done.Kind != KindCompleted || done.B != 0 || done.C != 0 {
		t.Fatalf("late completion event = %+v", done)
	}
}

// TestRingWraparound fills a tiny ring several times over and checks that
// only the newest capacity-many events are retained, oldest first, with
// global sequence numbers intact.
func TestRingWraparound(t *testing.T) {
	const capN = 8
	r := New(Config{Cap: capN})
	const total = 3*capN + 5
	for i := 0; i < total; i++ {
		r.Hop(int64(i), i, 1, 3, 1)
	}
	all := r.All()
	if len(all) != capN {
		t.Fatalf("retained %d events, want %d", len(all), capN)
	}
	for i, ev := range all {
		wantSeq := uint64(total - capN + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Flow != int64(wantSeq) {
			t.Fatalf("event %d flow = %d, want %d", i, ev.Flow, wantSeq)
		}
	}
	// Events for an overwritten flow are gone; for a retained one, present.
	if evs := r.Events(0); len(evs) != 0 {
		t.Fatalf("overwritten flow still has %d events", len(evs))
	}
	if evs := r.Events(total - 1); len(evs) != 1 {
		t.Fatalf("newest flow has %d events, want 1", len(evs))
	}
	if s := r.Stats(); s.Events != total || s.Retained != capN {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSamplingDeterminism pins the sampling contract: the tracked set
// depends only on (flow ID, sample), two recorders agree, the fraction is
// plausible, and sample=1 tracks everything.
func TestSamplingDeterminism(t *testing.T) {
	const n = 100000
	a := New(Config{Sample: 64})
	b := New(Config{Sample: 64})
	tracked := 0
	for id := int64(0); id < n; id++ {
		ta, tb := a.Tracks(id), b.Tracks(id)
		if ta != tb {
			t.Fatalf("recorders disagree on flow %d", id)
		}
		if ta {
			tracked++
		}
	}
	// Expect ~n/64 = 1562; the splitmix64 finalizer should keep the
	// binomial deviation small. Accept ±25%.
	want := n / 64
	if tracked < want*3/4 || tracked > want*5/4 {
		t.Fatalf("tracked %d of %d at sample=64, want ~%d", tracked, n, want)
	}
	ex := New(Config{})
	for id := int64(0); id < 1000; id++ {
		if !ex.Tracks(id) {
			t.Fatalf("exhaustive recorder skipped flow %d", id)
		}
	}
	// Untracked flows record nothing even when methods are called.
	s := New(Config{Sample: 1 << 40})
	s.Admit(1, 0, 5, 0, 1)
	s.Delivered(1, 1, 5)
	if len(s.All()) != 0 && s.Tracks(1) {
		t.Fatal("sampled-out flow recorded events")
	}
}

// TestConcurrentScrapeWhileRecording hammers the recorder from writer
// goroutines while readers scrape Events/Stats/All/WriteLog. Run under
// -race this pins the locking discipline.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	r := New(Config{Cap: 1 << 10, SLOEpochs: 8, Metrics: obs.NewRegistry()})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := int64(w*2000 + i)
				r.Admit(id, i, 4, 0, 1)
				r.Planned(id, i, 2, MatcherGreedy, 4)
				r.Hop(id, i, 1, 3, 4)
				r.Delivered(id, i+1, 4)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Events(42)
				_ = r.Stats()
				_ = r.All()
				_ = r.WriteLog(discard{})
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	s := r.Stats()
	if s.Completed != 8000 || s.OnTime != 8000 {
		t.Fatalf("stats after concurrent run = %+v", s)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestRegistryMirror checks the aggregates in a caller's obs.Registry.
func TestRegistryMirror(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{SLOEpochs: 10, Metrics: reg})
	for id := int64(0); id < 5; id++ {
		r.Admit(id, 0, 2, 0, 1)
		r.Delivered(id, 3, 2)
	}
	if got := reg.Value("octopus_flight_admitted_total"); got != 5 {
		t.Fatalf("admitted counter = %d", got)
	}
	if got := reg.Value("octopus_flight_completed_total"); got != 5 {
		t.Fatalf("completed counter = %d", got)
	}
	if got := reg.Value("octopus_flight_ontime_total"); got != 5 {
		t.Fatalf("ontime counter = %d", got)
	}
	if got := reg.Value("octopus_flight_ontime_permille"); got != 1000 {
		t.Fatalf("ontime permille = %d", got)
	}
	if got := reg.Value("octopus_flight_completion_epochs"); got != 5 {
		t.Fatalf("latency histogram count = %d", got)
	}
	// Stats reads the registry's instruments: the two agree.
	st, lat := r.Stats(), reg.Histogram("octopus_flight_completion_epochs")
	if st.Admitted != reg.Value("octopus_flight_admitted_total") ||
		st.Completed != reg.Value("octopus_flight_completed_total") ||
		st.OnTime != reg.Value("octopus_flight_ontime_total") ||
		st.CompletionP50 != lat.Quantile(0.5) ||
		st.SlackP50 != reg.Histogram("octopus_flight_slack_epochs").Quantile(0.5) {
		t.Fatalf("Stats %+v disagrees with the registry", st)
	}
}

// TestKindString covers the wire names, including out-of-range.
func TestKindString(t *testing.T) {
	for k := Kind(0); k < Kind(numKinds); k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind has a name")
	}
}

func BenchmarkRecordHop(b *testing.B) {
	r := New(Config{Cap: 1 << 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Hop(int64(i), i, 1, 3, 4)
	}
}

func BenchmarkTracksSampled(b *testing.B) {
	r := New(Config{Sample: 1024})
	b.ReportAllocs()
	var hits int
	for i := 0; i < b.N; i++ {
		if r.Tracks(int64(i)) {
			hits++
		}
	}
	_ = fmt.Sprint(hits)
}

// TestStateReleasedAtTerminalEvent runs 100 000 flows through a 64-event
// ring, each to one of its ends — the engine's Delivered-then-Completed
// pair, a completion that Delivered detects by itself, a drop, a
// cancellation — and requires that no per-flow state outlives its flow,
// while the SLO roll-up reads what it read when the state was kept.
func TestStateReleasedAtTerminalEvent(t *testing.T) {
	r := New(Config{Cap: 64, SLOEpochs: 4})
	const n = 100000
	for id := int64(0); id < n; id++ {
		e := int(id % 1000)
		r.Admit(id, e, 4, 0, 1)
		switch id % 4 {
		case 0:
			r.Delivered(id, e+2, 4)
			r.Completed(id, e+2) // must not count a second completion
		case 1:
			r.Delivered(id, e+1, 3)
			r.Delivered(id, e+6, 1)
		case 2:
			r.Delivered(id, e+1, 1)
			r.Dropped(id, e+1, 2) // the fourth packet sits on a live route
		case 3:
			r.Cancelled(id, e, 4)
		}
		if len(r.state) != 0 {
			t.Fatalf("flow %d ended but %d flow states are held", id, len(r.state))
		}
	}
	want := Snapshot{
		Sample: 1, Events: 3 * n, Retained: 64, TrackedFlows: n, Admitted: n,
		Completed: n / 2, OnTime: n / 4, OnTimeFraction: 0.5, SLOEpochs: 4,
		CompletionP50: 3, CompletionP99: 7, SlackP50: 0,
	}
	if got := r.Stats(); got != want {
		t.Fatalf("stats = %+v\nwant    %+v", got, want)
	}
	// A flow that lost packets can still deliver the rest; it has no state
	// to complete against and must not open one.
	r.Delivered(2, 9, 1)
	r.Completed(2, 9)
	if got := r.Stats(); len(r.state) != 0 || got.Completed != n/2 {
		t.Fatalf("delivery after a drop: %d states, %d completed", len(r.state), got.Completed)
	}
}
