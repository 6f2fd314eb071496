package engine

// liveFlow is one slot of the flow table: the committed state of an arrival
// that still has packets in the backlog.
type liveFlow struct {
	id          int   // arrival flow ID
	src         int   // node the arrival entered the network at
	group       int32 // index into Pipeline.groupBest, -1 when ungrouped
	outstanding int   // packets still in the backlog; 0 once retired
	delivered   int   // packets delivered so far
	lost        int   // packets dropped as unreachable or deduplicated so far
}

// flowTable holds one slot per live arrival. A slot is retired, and its
// index reused, the moment the arrival's last packet leaves the backlog —
// delivered, dropped, deduplicated or cancelled — so the table's size
// follows the live load, never the pipeline's lifetime. It is one record
// per slot rather than one slice per field because every touch of a slot
// reads most of its fields.
type flowTable struct {
	slots []liveFlow
	free  []int32 // retired slots awaiting reuse
	held  int     // Σ outstanding over the live slots
}

func (t *flowTable) admit(f liveFlow) int32 {
	t.held += f.outstanding
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[s] = f
		return s
	}
	t.slots = append(t.slots, f)
	return int32(len(t.slots) - 1)
}

// take removes n packets of slot s from the backlog's account and retires
// the slot when none are left, reporting whether it did.
func (t *flowTable) take(s int32, n int) (retired bool) {
	t.held -= n
	t.slots[s].outstanding -= n
	if t.slots[s].outstanding > 0 {
		return false
	}
	t.free = append(t.free, s)
	return true
}
