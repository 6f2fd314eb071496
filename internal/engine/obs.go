package engine

import "octopus/internal/obs"

// observeEpoch records one scheduled epoch on the observer: the per-epoch
// counters, the live queue-depth gauge, and the "online.epoch" trace event.
// Read-only with respect to the run; a nil observer costs the Enabled check.
// The online_* metric and event names are kept stable for dashboards.
func observeEpoch(o *obs.Observer, stat *FaultEpochStat, reconfigs int) {
	if !o.Enabled() {
		return
	}
	o.Counter("octopus_online_epochs_total").Inc()
	o.Counter("octopus_online_arrived_total").Add(int64(stat.Arrived))
	o.Counter("octopus_online_delivered_total").Add(int64(stat.Delivered))
	o.Counter("octopus_online_reconfigs_total").Add(int64(reconfigs))
	o.Gauge("octopus_online_backlog").Set(int64(stat.Backlog))
	o.Tracer().Emit("online.epoch",
		obs.I("epoch", int64(stat.Epoch)),
		obs.I("arrived", int64(stat.Arrived)),
		obs.I("offered", int64(stat.Offered)),
		obs.I("delivered", int64(stat.Delivered)),
		obs.I("backlog", int64(stat.Backlog)),
		obs.I("reconfigs", int64(reconfigs)),
	)
}

// observeRepair records an epoch boundary's fault-repair outcome: the
// degradation counters always accumulate; the "online.repair" trace event
// fires only at boundaries where failures were visible or repairs happened,
// so failure-free epochs stay silent in the trace.
func observeRepair(o *obs.Observer, stat *FaultEpochStat) {
	if !o.Enabled() {
		return
	}
	o.Counter("octopus_online_rerouted_total").Add(int64(stat.Rerouted))
	o.Counter("octopus_online_stranded_requeued_total").Add(int64(stat.Stranded))
	o.Counter("octopus_online_dropped_total").Add(int64(stat.Dropped))
	if stat.FailedLinks == 0 && stat.FailedNodes == 0 &&
		stat.Rerouted == 0 && stat.Stranded == 0 && stat.Dropped == 0 {
		return
	}
	o.Tracer().Emit("online.repair",
		obs.I("epoch", int64(stat.Epoch)),
		obs.I("failed_links", int64(stat.FailedLinks)),
		obs.I("failed_nodes", int64(stat.FailedNodes)),
		obs.I("rerouted", int64(stat.Rerouted)),
		obs.I("stranded", int64(stat.Stranded)),
		obs.I("dropped", int64(stat.Dropped)),
	)
}

// observeState publishes, after every commit, how many flows are live and
// whether the commit left the packet accounting conserved (see Totals).
func observeState(o *obs.Observer, live int, conserved bool) {
	if !o.Enabled() {
		return
	}
	o.Gauge("octopus_engine_live_flows").Set(int64(live))
	violations := o.Counter("octopus_engine_conservation_violations_total")
	if conserved {
		violations.Add(0) // registers the counter, so a healthy run reads 0
	} else {
		violations.Inc()
	}
}
