// Package daemon is the long-lived scheduler service behind cmd/mhsd: an
// engine.Pipeline driven continuously against wall-clock epochs, fed by an
// HTTP JSON API (flow submission/cancellation, fabric reload, epoch
// introspection) with the repository's observability endpoints mounted on
// the same mux.
//
// The loop is double-buffered: while the committed epoch k "executes" for
// one wall epoch, the plan for epoch k+1 is computed on a separate
// goroutine — the reconfiguration delay Δ is free compute time, so the
// planning budget is one epoch plus Δ's share of the next. A plan that
// overruns the budget stretches the boundary (the schedule stays correct,
// simulated time just advances late), increments
// octopus_daemon_plan_overruns_total, and flips the daemon into an
// overloaded state in which flow submissions are rejected with 429 until a
// plan lands inside the budget again — that is the backpressure policy.
package daemon

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/graph"
	"octopus/internal/httpd"
	"octopus/internal/obs"
	"octopus/internal/obs/flight"
)

const (
	ringSize     = 64
	maxFlowSize  = 1 << 20
	maxBatch     = 1024
	reloadWait   = 30 * time.Second
	serveGrace   = 5 * time.Second
	maxBodyBytes = 1 << 20
)

// Options configures a daemon Server.
type Options struct {
	// Fabric is the initial circuit fabric. Required.
	Fabric *graph.Digraph
	// Core configures the per-epoch Octopus planner; Window must exceed
	// Delta, and Delta must be non-negative. Core.Obs is overwritten with the daemon's own observer.
	Core core.Options
	// EpochDuration is the wall-clock length of one epoch (default 100ms).
	// The planning budget per epoch is EpochDuration·(1 + Delta/Window).
	EpochDuration time.Duration
	// QueueLimit caps the packets queued awaiting admission; submissions
	// beyond it are rejected with 429 (default 1<<20).
	QueueLimit int
	// DrainTimeout bounds the post-shutdown drain of backlogged epochs
	// (default 5s).
	DrainTimeout time.Duration
	// Audit verifies every epoch plan against the fabric before commit.
	Audit bool
	// FingerprintPlans attaches a short schedule fingerprint to each epoch
	// record in /v1/epochs (used by the equality tests; cheap but not
	// free).
	FingerprintPlans bool
	// Registry receives the daemon's and the planner's metrics (default: a
	// fresh registry).
	Registry *obs.Registry
	// Tracer, when set, receives the planner's JSONL decision trace.
	Tracer *obs.Tracer
	// Flight, when set, receives per-flow lifecycle events from the epoch
	// engine and powers GET /v1/flows/{id}/events plus the /v1/status SLO
	// roll-up. nil disables per-flow tracing; scheduling is bit-identical
	// either way.
	Flight *flight.Recorder
	// Logf, when set, receives one line per notable lifecycle event.
	Logf func(format string, args ...any)
}

// Server is one daemon instance: a pipeline, its driver loop, and the
// HTTP API. Create with New, run with Run.
type Server struct {
	opt  Options
	pipe *engine.Pipeline
	reg  *obs.Registry

	boundary   atomic.Int64 // admission stamp for new submissions
	overloaded atomic.Bool
	autoID     atomic.Int64
	fab        atomic.Pointer[graph.Digraph]

	reloadCh chan reloadReq
	done     chan struct{} // closed when the driver loop has exited

	mu      sync.Mutex
	ring    []EpochRecord
	totals  engine.Totals
	epochs  int
	backlog int
}

type reloadReq struct {
	g     *graph.Digraph
	reply chan error
}

// EpochRecord is one committed epoch as reported by /v1/epochs.
type EpochRecord struct {
	Epoch      int    `json:"epoch"`
	Kind       string `json:"kind"`
	Arrived    int    `json:"arrived"`
	Offered    int    `json:"offered"`
	Delivered  int    `json:"delivered"`
	Backlog    int    `json:"backlog"`
	Rerouted   int    `json:"rerouted,omitempty"`
	Dropped    int    `json:"dropped,omitempty"`
	Cancelled  int    `json:"cancelled,omitempty"`
	Psi        int64  `json:"psi"`
	PlanMicros int64  `json:"plan_micros"`
	Overrun    bool   `json:"overrun,omitempty"`
	SchedFP    string `json:"sched_fp,omitempty"`
}

func kindName(k engine.PlanKind) string {
	switch k {
	case engine.PlanScheduled:
		return "scheduled"
	case engine.PlanIdle:
		return "idle"
	case engine.PlanJitterSkipped:
		return "jitter-skipped"
	case engine.PlanDrained:
		return "drained"
	}
	return "unknown"
}

// New builds a Server over opt.Fabric. The pipeline runs in repair mode
// with reactive rerouting, so fabric reloads and route-breaking changes
// heal at the next boundary instead of failing the run.
func New(opt Options) (*Server, error) {
	if opt.Fabric == nil {
		return nil, errors.New("daemon: Fabric is required")
	}
	if opt.EpochDuration <= 0 {
		opt.EpochDuration = 100 * time.Millisecond
	}
	if opt.QueueLimit <= 0 {
		opt.QueueLimit = 1 << 20
	}
	if opt.DrainTimeout <= 0 {
		opt.DrainTimeout = 5 * time.Second
	}
	if opt.Registry == nil {
		opt.Registry = obs.NewRegistry()
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	opt.Core.Obs = &obs.Observer{Metrics: opt.Registry, Trace: opt.Tracer}
	pipe, err := engine.New(opt.Fabric, engine.Config{
		Core:     opt.Core,
		Repair:   true,
		Reactive: true,
		Audit:    opt.Audit,
		Flight:   opt.Flight,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:      opt,
		pipe:     pipe,
		reg:      opt.Registry,
		reloadCh: make(chan reloadReq),
		done:     make(chan struct{}),
	}
	s.fab.Store(opt.Fabric)
	// Touch the daemon metrics so a scrape before the first overrun or
	// reload still reports them at zero.
	s.reg.Counter("octopus_daemon_plan_overruns_total").Add(0)
	s.reg.Counter("octopus_daemon_fabric_reloads_total").Add(0)
	s.reg.Gauge("octopus_daemon_queued_packets").Set(0)
	s.reg.Duration("octopus_daemon_plan_seconds")
	return s, nil
}

// Run serves the API on ln and drives the epoch loop until ctx is
// cancelled, then shuts the HTTP server down gracefully and drains the
// in-flight and backlogged epochs (bounded by DrainTimeout). Returns nil
// on a clean shutdown.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	loopCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		defer close(s.done)
		s.loop(loopCtx)
	}()
	srv := &http.Server{Handler: s.Handler()}
	err := httpd.Serve(ctx, srv, ln, serveGrace)
	cancel()
	<-loopDone
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loop is the double-buffered epoch driver: each iteration overlaps the
// committed epoch's wall-clock "execution" with the planning of the next
// one, commits the plan, and publishes the epoch record.
func (s *Server) loop(ctx context.Context) {
	epochDur := s.opt.EpochDuration
	// Δ's share of the epoch is legitimate planning time on top of the
	// previous epoch's execution: nothing transmits during reconfiguration.
	budget := epochDur + epochDur*time.Duration(s.opt.Core.Delta)/time.Duration(s.opt.Core.Window)
	for ctx.Err() == nil {
		s.applyReload()

		type planOut struct {
			plan *engine.Plan
			err  error
			dur  time.Duration // PlanNext alone, not the wait for the boundary
		}
		start := time.Now()
		ch := make(chan planOut, 1)
		go func() {
			plan, err := s.pipe.PlanNext()
			ch <- planOut{plan, err, time.Since(start)}
		}()

		var out planOut
		overrun := false
		budgetTimer := time.NewTimer(budget)
		select {
		case out = <-ch:
			// Plan ready inside the budget: let the current epoch finish
			// executing before the boundary.
			if remain := epochDur - time.Since(start); remain > 0 {
				execTimer := time.NewTimer(remain)
				select {
				case <-execTimer.C:
				case <-ctx.Done():
					execTimer.Stop()
				}
			}
		case <-budgetTimer.C:
			// Planning overran Δ: the boundary stretches until the plan
			// lands, and submissions see backpressure meanwhile.
			overrun = true
			s.overloaded.Store(true)
			s.reg.Counter("octopus_daemon_plan_overruns_total").Inc()
			s.opt.Logf("daemon: epoch %d plan overran the %v budget", s.pipe.Epoch(), budget)
			out = <-ch
		case <-ctx.Done():
			out = <-ch // let the in-flight plan finish; commit, then drain
		}
		budgetTimer.Stop()
		if out.err != nil {
			s.opt.Logf("daemon: planning failed, stopping: %v", out.err)
			return
		}
		if !overrun {
			s.overloaded.Store(false)
		}
		s.commit(out.plan, out.dur, overrun)
	}
	s.drain()
}

// drain fast-forwards the pipeline (no wall-clock pacing) until nothing is
// queued or backlogged, bounded by DrainTimeout — the graceful-shutdown
// path that finishes what the daemon accepted.
func (s *Server) drain() {
	deadline := time.Now().Add(s.opt.DrainTimeout)
	for !s.pipe.Done() {
		if time.Now().After(deadline) {
			s.opt.Logf("daemon: drain timed out with %d packets backlogged", s.pipe.BacklogPackets())
			return
		}
		plan, err := s.pipe.PlanNext()
		if err != nil {
			s.opt.Logf("daemon: drain planning failed: %v", err)
			return
		}
		s.commit(plan, 0, false)
	}
	s.opt.Logf("daemon: drained cleanly at epoch %d", s.pipe.Epoch())
}

// commit applies one plan and publishes its epoch record and gauges.
func (s *Server) commit(plan *engine.Plan, planDur time.Duration, overrun bool) {
	fp := ""
	if s.opt.FingerprintPlans {
		fp = planFingerprint(plan.Result())
	}
	stat, err := s.pipe.Commit(plan)
	if err != nil {
		// Unreachable by construction (plans are committed in order, once);
		// log rather than crash the loop.
		s.opt.Logf("daemon: commit failed: %v", err)
		return
	}
	s.boundary.Store(int64(s.pipe.Boundary()))
	s.reg.Gauge("octopus_daemon_queued_packets").Set(int64(s.pipe.QueuedPackets()))
	s.reg.Duration("octopus_daemon_plan_seconds").Observe(planDur.Nanoseconds())

	rec := EpochRecord{
		Epoch:      stat.Epoch,
		Kind:       kindName(plan.Kind),
		Arrived:    stat.Arrived,
		Offered:    stat.Offered,
		Delivered:  stat.Delivered,
		Backlog:    stat.Backlog,
		Rerouted:   stat.Rerouted,
		Dropped:    stat.Dropped,
		Cancelled:  stat.Cancelled,
		Psi:        stat.Psi,
		PlanMicros: planDur.Microseconds(),
		Overrun:    overrun,
		SchedFP:    fp,
	}
	s.mu.Lock()
	s.ring = append(s.ring, rec)
	if len(s.ring) > ringSize {
		s.ring = s.ring[len(s.ring)-ringSize:]
	}
	s.totals = s.pipe.Totals()
	s.epochs = s.pipe.Epoch()
	s.backlog = s.pipe.BacklogPackets()
	s.mu.Unlock()
}

// applyReload applies at most one pending fabric-reload request at the
// epoch boundary (between a commit and the next plan).
func (s *Server) applyReload() {
	select {
	case req := <-s.reloadCh:
		err := s.pipe.ReloadFabric(req.g)
		if err == nil {
			s.fab.Store(req.g)
			s.reg.Counter("octopus_daemon_fabric_reloads_total").Inc()
			s.opt.Logf("daemon: fabric reloaded: %d nodes, %d links", req.g.N(), req.g.M())
		}
		req.reply <- err
	default:
	}
}
