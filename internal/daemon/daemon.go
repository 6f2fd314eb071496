// Package daemon is the long-lived scheduler service behind cmd/mhsd: an
// engine.Pipeline driven continuously against wall-clock epochs, fed by an
// HTTP JSON API (flow submission/cancellation, fabric reload, epoch
// introspection) with the repository's observability endpoints mounted on
// the same mux.
//
// The loop plans at the last safe moment: while the committed epoch k
// "executes" for one wall epoch, submissions keep queueing, and the plan
// for epoch k+1 is taken only a measured lead before the boundary (see
// planLead). The reconfiguration delay Δ is free compute time, so the
// planning budget is one epoch plus Δ's share of the next. A plan that
// overruns the budget stretches the boundary (the schedule stays correct,
// simulated time just advances late), increments
// octopus_daemon_plan_overruns_total, and flips the daemon into an
// overloaded state in which flow submissions are rejected with 429 until a
// plan lands inside the budget again — that is the backpressure policy.
//
// Server.Run owns the whole lifecycle: it serves the API until its context
// is cancelled, then shuts the HTTP server down gracefully (in-flight
// requests get a grace period) and drains the backlog; a listener that
// fails on its own ends the run with its error.
package daemon

import (
	"errors"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/graph"
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
	// The plan lead's window and guard (planLead; DESIGN §15.3).
	planWindow = 32
	planGuard  = 2 * time.Millisecond
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
	lead       atomic.Int64 // the current plan lead in nanoseconds
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
	WaitMicros int64  `json:"wait_micros"` // from the previous commit to the snapshot
	PlanMicros int64  `json:"plan_micros"` // the fabric reload and PlanNext
	Overrun    bool   `json:"overrun,omitempty"`
	SchedFP    string `json:"sched_fp,omitempty"`
}

// kindNames are the /v1/epochs names of the engine's plan kinds.
var kindNames = [...]string{engine.PlanScheduled: "scheduled", engine.PlanIdle: "idle",
	engine.PlanJitterSkipped: "jitter-skipped", engine.PlanDrained: "drained"}

func kindName(k engine.PlanKind) string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
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
	// Touch the daemon metrics so a scrape before the first epoch, overrun
	// or reload still reports them at zero.
	s.reg.Counter("octopus_daemon_plan_overruns_total").Add(0)
	s.reg.Counter("octopus_daemon_fabric_reloads_total").Add(0)
	s.reg.Gauge("octopus_daemon_queued_packets").Set(0)
	s.reg.Duration("octopus_daemon_plan_seconds")
	s.reg.Duration("octopus_daemon_plan_wait_seconds")
	return s, nil
}

// Run serves the API on ln and drives the epoch loop until ctx is
// cancelled, then shuts the HTTP server down gracefully — in-flight
// requests get serveGrace to finish before they are closed — and drains
// the backlogged epochs (bounded by DrainTimeout). Returns nil on a clean
// shutdown, and the serve error at once if the listener fails on its own.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	loopCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		defer close(s.done)
		s.loop(loopCtx)
	}()
	srv := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-served: // the listener failed; nothing to drain
	case <-ctx.Done():
		sctx, stop := context.WithTimeout(context.Background(), serveGrace)
		if err = srv.Shutdown(sctx); err != nil {
			srv.Close()
		}
		stop()
		<-served // http.ErrServerClosed once Shutdown has begun
	}
	cancel()
	<-s.done
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loop is the epoch driver. The next boundary is one epoch after the last
// commit: the loop sleeps until planLead before it, applies any pending
// fabric reload, plans on the admission queue as it stands then, waits for
// the boundary and commits. Once ctx is done its sleeps return at once, so
// it fast-forwards until nothing is queued or backlogged, bounded by
// DrainTimeout — the graceful shutdown that finishes what was accepted.
func (s *Server) loop(ctx context.Context) {
	epochDur := s.opt.EpochDuration
	// Δ's share of the epoch is legitimate planning time on top of the
	// previous epoch's execution: nothing transmits during reconfiguration.
	budget := epochDur + epochDur*time.Duration(s.opt.Core.Delta)/time.Duration(s.opt.Core.Window)
	var recent [planWindow]time.Duration          // the last plan times, a ring
	committed, drainBy := time.Now(), time.Time{} // drainBy is set once ctx is done
	for n := 0; ctx.Err() == nil || !s.pipe.Done(); n++ {
		if ctx.Err() != nil && drainBy.IsZero() {
			drainBy = time.Now().Add(s.opt.DrainTimeout)
		} else if ctx.Err() != nil && time.Now().After(drainBy) {
			s.opt.Logf("daemon: drain timed out with %d packets backlogged", s.pipe.BacklogPackets())
			return
		}
		lead := planLead(epochDur, recent[:min(n, planWindow)])
		s.lead.Store(int64(lead))
		boundary := committed.Add(epochDur)
		sleepUntil(ctx, boundary.Add(-lead))
		start := time.Now()
		// A plan that overruns the budget stretches the boundary until it
		// lands, and submissions see backpressure meanwhile.
		timer := time.AfterFunc(budget, func() {
			s.overloaded.Store(true)
			s.reg.Counter("octopus_daemon_plan_overruns_total").Inc()
		})
		s.applyReload()
		plan, err := s.pipe.PlanNext()
		dur, overrun := time.Since(start), !timer.Stop()
		if err != nil {
			s.opt.Logf("daemon: planning failed, stopping: %v", err)
			return
		}
		if overrun {
			s.opt.Logf("daemon: epoch %d plan took %v, over the %v budget", plan.Epoch, dur, budget)
		}
		s.overloaded.Store(overrun)
		recent[n%planWindow] = dur
		sleepUntil(ctx, boundary)
		s.commit(plan, start.Sub(committed), dur, overrun)
		committed = time.Now()
	}
	s.opt.Logf("daemon: drained cleanly at epoch %d", s.pipe.Epoch())
}

// planLead is how long before the boundary the loop plans: the longest of
// the recent plan times plus planGuard, at most the whole epoch — which it
// is until planWindow plans are measured, and while the window holds a
// plan that overran.
func planLead(epoch time.Duration, recent []time.Duration) time.Duration {
	if len(recent) < planWindow {
		return epoch
	}
	return min(epoch, slices.Max(recent)+planGuard)
}

// sleepUntil waits until t or until ctx is done.
func sleepUntil(ctx context.Context, t time.Time) {
	select {
	case <-time.After(time.Until(t)):
	case <-ctx.Done():
	}
}

// commit applies one plan and publishes its epoch record and gauges.
func (s *Server) commit(plan *engine.Plan, wait, planDur time.Duration, overrun bool) {
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
	s.reg.Duration("octopus_daemon_plan_wait_seconds").Observe(wait.Nanoseconds())

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
		WaitMicros: wait.Microseconds(),
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
