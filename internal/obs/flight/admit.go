package flight

import "octopus/internal/traffic"

// AdmitLoad records admission events for every tracked flow in a load at
// the given epoch. This is the traffic-layer entry point for offline
// drivers (mhsim) whose whole workload is admitted at once;
// online drivers admit per batch through the engine instead. A nil
// recorder or load is a no-op.
func AdmitLoad(r *Recorder, load *traffic.Load, epoch int) {
	if r == nil || load == nil {
		return
	}
	for i := range load.Flows {
		f := &load.Flows[i]
		r.Admit(int64(f.ID), epoch, int64(f.Size), int64(f.Src), int64(f.Dst))
	}
}
