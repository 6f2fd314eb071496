package flight

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// refRing is the preallocated ring the recorder kept before it grew its
// storage on demand: Cap slots from the start, event s in slot s % Cap.
// TestRingGrowthMatchesPreallocated holds the grown ring to it.
type refRing struct {
	seq uint64
	evs []Event
}

func (q *refRing) record(ev Event) {
	ev.Seq = q.seq
	q.evs[q.seq%uint64(len(q.evs))] = ev
	q.seq++
}

// all returns the retained events oldest first, as All does.
func (q *refRing) all() []Event {
	capN := uint64(len(q.evs))
	start := uint64(0)
	if q.seq > capN {
		start = q.seq - capN
	}
	out := []Event{}
	for s := start; s < q.seq; s++ {
		out = append(out, q.evs[s%capN])
	}
	return out
}

// ringCounts returns the event counts to try at a cap: both sides of
// every power of two up to four times the cap (each doubling of the
// ring's storage lands on one), both sides of the cap, and a ring that
// has wrapped twice.
func ringCounts(capN int) []int {
	counts := []int{0, capN - 1, capN, capN + 1, 2*capN + 1}
	for p := 1; p <= 4*capN; p *= 2 {
		counts = append(counts, p-1, p, p+1)
	}
	return counts
}

// TestRingGrowthMatchesPreallocated records the same events into a
// recorder and into the preallocated reference ring, for caps on both
// sides of a power of two and event counts on both sides of every growth
// step and of the cap, and requires All, Events, Stats and the WriteLog
// round trip to read what the reference holds.
func TestRingGrowthMatchesPreallocated(t *testing.T) {
	const flows = 13
	for _, capN := range []int{1, 7, 1024, 1025, 3000} {
		for _, count := range ringCounts(capN) {
			if count < 0 {
				continue
			}
			t.Run(fmt.Sprintf("cap%d/events%d", capN, count), func(t *testing.T) {
				r := New(Config{Cap: capN})
				ref := &refRing{evs: make([]Event, capN)}
				for i := 0; i < count; i++ {
					ev := Event{
						Flow: int64(i % flows), Kind: Kind(i % numKinds), Epoch: int32(i / 3),
						A: int64(i), B: -int64(i), C: int64(i) << 33,
					}
					r.record(ev.Flow, ev.Kind, int(ev.Epoch), ev.A, ev.B, ev.C)
					ref.record(ev)
				}
				want := ref.all()
				sameEvents(t, "All", r.All(), want)
				for f := int64(0); f < flows; f++ {
					var wantF []Event
					for _, ev := range want {
						if ev.Flow == f {
							wantF = append(wantF, ev)
						}
					}
					sameEvents(t, fmt.Sprintf("Events(%d)", f), r.Events(f), wantF)
				}
				if s := r.Stats(); s.Events != uint64(count) || s.Retained != len(want) {
					t.Fatalf("stats events %d retained %d, want %d and %d", s.Events, s.Retained, count, len(want))
				}
				var buf bytes.Buffer
				if err := r.WriteLog(&buf); err != nil {
					t.Fatal(err)
				}
				_, total, evs := decodeLog(t, buf.Bytes())
				if total != int64(count) || len(evs) != len(want) {
					t.Fatalf("log header counts %d events, %d lines; want %d and %d", total, len(evs), count, len(want))
				}
				for i, ev := range evs {
					w := want[i]
					w.Seq = uint64(i + 1) // the log numbers its own lines after the header
					if ev != w {
						t.Fatalf("log line %d: %+v, want %+v", i, ev, w)
					}
				}
			})
		}
	}
}

func sameEvents(t *testing.T, what string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s event %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestNewAllocatesNoRing: Cap bounds the ring, it reserves nothing. A
// recorder built for a million events costs a few hundred bytes until it
// records (a ring preallocated at that cap costs 37 MiB), and a retained
// event costs 40 bytes.
func TestNewAllocatesNoRing(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 40 {
		t.Fatalf("a ring slot is %d bytes, want 40", size)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := New(Config{Cap: 1 << 20})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("New(Cap: 1<<20) allocated %d bytes, want < 64 KiB", got)
	}
}
