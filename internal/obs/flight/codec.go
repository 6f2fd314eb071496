package flight

import (
	"bufio"
	"io"

	"octopus/internal/obs"
)

// WriteLog serializes the recorder's retained events in the decision
// trace's JSONL envelope (obs.Tracer: "v", "seq", "ev" on every line, read
// back by obs.DecodeTrace), so a flight log and a decision trace are two
// views of one event model and join on "epoch": first a "flight" record
// carrying the sampling denominator and the number of events ever recorded
// (more than the lines that follow once the ring has wrapped), then one
// "flow.<kind>" record per retained event, oldest first, with the flow ID,
// the epoch and the kind's three arguments (see the Kind constants). The
// events are one atomic snapshot with respect to concurrent recording.
func (r *Recorder) WriteLog(w io.Writer) error {
	if r == nil {
		return nil
	}
	events := r.All()
	total := uint64(0) // the newest event's sequence number counts them all
	if n := len(events); n > 0 {
		total = events[n-1].Seq + 1
	}
	bw := bufio.NewWriter(w)
	t := obs.NewTracer(bw)
	t.Emit("flight", obs.I("sample", int64(r.Sample())), obs.I("events", int64(total)))
	for _, ev := range events {
		t.Emit("flow."+ev.Kind.String(),
			obs.I("flow", ev.Flow), obs.I("epoch", int64(ev.Epoch)),
			obs.I("a", ev.A), obs.I("b", ev.B), obs.I("c", ev.C))
	}
	if err := t.Err(); err != nil {
		return err
	}
	return bw.Flush()
}
