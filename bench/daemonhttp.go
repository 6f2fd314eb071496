package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/daemon"
	"octopus/internal/engine"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
)

// daemonConfig defines daemon-http: the engine-churn arrival process paced
// by the wall clock and sent over HTTP to an in-process daemon.Server. It
// is an open loop: every request has a due time fixed at generation and is
// timed from it, however late the generator or the server runs.
type daemonConfig struct {
	arrivals     arrivalConfig
	epoch        time.Duration // wall length of an epoch
	batch        int           // requests alternate one flow and a batch of this many
	conns        int           // generator goroutines, one keep-alive connection each
	queueLimit   int
	flightSample int
	flightCap    int
	slo          time.Duration // completion later than this misses the SLO
	pollEvery    time.Duration
	drainWait    time.Duration
}

func daemonHTTP() daemonConfig {
	return daemonConfig{
		arrivals: churnArrivals(), epoch: 25 * time.Millisecond, batch: 8, conns: 2,
		queueLimit: 1 << 22, flightSample: 4, flightCap: 1 << 20,
		slo: 250 * time.Millisecond, pollEvery: 6 * time.Millisecond, drainWait: 10 * time.Second,
	}
}

// request is one scheduled HTTP request: a POST of one flow or a batch, or
// the DELETE of a flow posted one epoch earlier.
type request struct {
	due    time.Duration // offset from the start of the load
	method string
	path   string
	body   []byte
	ids    []int // the flows a POST carries; the flow a DELETE cancels
	after  int   // for a DELETE, the index of the POST that carries its flow
}

// flowInfo is what the generator remembers about a flow it sent.
type flowInfo struct {
	due     time.Duration
	size    int
	deleted bool // a DELETE is scheduled for it
}

type daemonInput struct {
	fabric   *graph.Digraph
	requests []request
	flows    map[int]flowInfo
}

// load generates the request schedule: flowsPerEpoch flows per epoch of
// wall time for the given duration, every other flow with an explicit
// route and the rest leaving the route to the server's BFS.
func (c daemonConfig) load(seed int64, duration time.Duration) (*daemonInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &daemonInput{fabric: c.arrivals.fabric(rng), flows: make(map[int]flowInfo)}
	perFlow := c.epoch / time.Duration(c.arrivals.flowsPerEpoch)
	total := int(duration / perFlow)
	for id := 1; id <= total; {
		n := 1
		if len(in.requests)%2 == 1 {
			n = min(c.batch, total-id+1)
		}
		due := time.Duration(id-1) * perFlow
		post := request{due: due, method: http.MethodPost, path: "/v1/flows"}
		reqs := make([]daemon.FlowRequest, n)
		for k := range reqs {
			f, err := c.arrivals.flow(rng, in.fabric, id)
			if err != nil {
				return nil, err
			}
			reqs[k] = daemon.FlowRequest{ID: f.ID, Src: f.Src, Dst: f.Dst, Size: f.Size}
			if id%2 == 0 {
				reqs[k].Routes = [][]int{f.Routes[0]}
			}
			in.flows[id] = flowInfo{due: due, size: f.Size, deleted: rng.Intn(c.arrivals.cancelOneIn) == 0}
			post.ids = append(post.ids, id)
			id++
		}
		var err error
		if n == 1 {
			post.body, err = json.Marshal(reqs[0])
		} else {
			post.body, err = json.Marshal(reqs)
		}
		if err != nil {
			return nil, err
		}
		in.requests = append(in.requests, post)
	}
	for id, info := range in.flows {
		if info.deleted {
			in.requests = append(in.requests, request{
				due: info.due + c.epoch, method: http.MethodDelete,
				path: "/v1/flows/" + strconv.Itoa(id), ids: []int{id},
			})
		}
	}
	// Map order is random: order the schedule by due time, then by flow.
	sort.Slice(in.requests, func(i, j int) bool {
		a, b := &in.requests[i], &in.requests[j]
		if a.due != b.due {
			return a.due < b.due
		}
		return a.ids[0] < b.ids[0]
	})
	postOf := make(map[int]int, len(in.flows))
	for i, r := range in.requests {
		if r.method == http.MethodPost {
			for _, id := range r.ids {
				postOf[id] = i
			}
		}
	}
	for i := range in.requests {
		if r := &in.requests[i]; r.method == http.MethodDelete {
			r.after = postOf[r.ids[0]]
		}
	}
	return in, nil
}

// server is one started daemon: listening on loopback and running its
// epoch loop until stop is called.
type server struct {
	srv    *daemon.Server
	reg    *obs.Registry
	rec    *flight.Recorder
	base   string
	cancel context.CancelFunc
	done   chan error
}

func (c daemonConfig) options(g *graph.Digraph, reg *obs.Registry, rec *flight.Recorder) daemon.Options {
	return daemon.Options{
		Fabric: g, Core: c.arrivals.core, EpochDuration: c.epoch, QueueLimit: c.queueLimit,
		Registry: reg, Flight: rec,
	}
}

// startServer starts a daemon on 127.0.0.1 and waits until it answers.
func (c daemonConfig) startServer(g *graph.Digraph) (*server, error) {
	s := &server{reg: obs.NewRegistry(), done: make(chan error, 1)}
	s.rec = flight.New(flight.Config{Sample: c.flightSample, Cap: c.flightCap})
	var err error
	if s.srv, err = daemon.New(c.options(g, s.reg, s.rec)); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	var ctx context.Context
	ctx, s.cancel = context.WithCancel(context.Background())
	go func() { s.done <- s.srv.Run(ctx, ln) }()
	resp, err := http.Get(s.base + "/v1/status")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the daemon down and waits for its loop and listener to end.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// get calls the daemon's handler in-process, with no socket in between.
func (s *server) get(path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// epochsView is the part of GET /v1/epochs the poller reads.
type epochsView struct {
	Epoch   int                  `json:"epoch"`
	Backlog int                  `json:"backlog_packets"`
	Totals  engine.Totals        `json:"totals"`
	Epochs  []daemon.EpochRecord `json:"epochs"`
}

func (v *epochsView) queued() int {
	t := v.Totals
	return t.Submitted - t.Delivered - t.Dropped - t.Cancelled - t.SurvivedRedundant - v.Backlog
}

// poller watches /v1/epochs in-process: it stamps each epoch with the wall
// time at which its commit first became visible, keeps every epoch record
// it sees, and samples the backlog and the admission queue.
type poller struct {
	s        *server
	scrape   bool // also time /v1/status and /metrics now and then
	stopCh   chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	commitAt map[int]time.Time
	records  map[int]daemon.EpochRecord
	last     epochsView
	backlog  []float64
	queue    []float64
	statusMs []float64
	scrapeMs []float64
	firstAt  time.Time
	firstEp  int
}

func (s *server) poll(every time.Duration, scrape bool) *poller {
	p := &poller{
		s: s, scrape: scrape, stopCh: make(chan struct{}), done: make(chan struct{}),
		commitAt: make(map[int]time.Time), records: make(map[int]daemon.EpochRecord),
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for n := 0; ; n++ {
			p.once()
			if p.scrape && n%80 == 40 { // about twice a second
				t0 := time.Now()
				p.s.get("/v1/status")
				t1 := time.Now()
				p.s.get("/metrics")
				p.mu.Lock()
				p.statusMs = append(p.statusMs, ms(t1.Sub(t0)))
				p.scrapeMs = append(p.scrapeMs, ms(time.Since(t1)))
				p.mu.Unlock()
			}
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *poller) once() {
	var v epochsView
	if err := json.Unmarshal(p.s.get("/v1/epochs").Body.Bytes(), &v); err != nil {
		return // counted below: an epoch never stamped fails its flows
	}
	now := time.Now()
	// The totals in /v1/epochs are as of the last commit; the admission
	// queue between commits is only visible live, on /v1/flows.
	var live struct {
		Queued int `json:"queued_packets"`
	}
	if err := json.Unmarshal(p.s.get("/v1/flows").Body.Bytes(), &live); err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstAt.IsZero() {
		p.firstAt, p.firstEp = now, v.Epoch
	}
	for e := p.last.Epoch + 1; e <= v.Epoch; e++ {
		p.commitAt[e] = now
	}
	for _, r := range v.Epochs {
		p.records[r.Epoch] = r
	}
	p.last = v
	p.backlog = append(p.backlog, float64(v.Backlog))
	p.queue = append(p.queue, float64(live.Queued))
}

func (p *poller) view() epochsView {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

func (p *poller) stop() {
	close(p.stopCh)
	<-p.done
}

// sent is what the generator recorded about one request.
type sent struct {
	status   atomic.Int32  // the final answer; 0 until it is in, -1 if never sent
	refusals int           // 429 answers before it
	late     time.Duration // how far past its due time it was first sent
	service  time.Duration // from the last send to its response
}

// maxRetries bounds how often a refused POST is sent again.
const maxRetries = 40

// drive sends the schedule from c.conns goroutines, each with one
// keep-alive connection, taking requests in due order. A POST answered 429
// (the daemon's backpressure while a plan overruns its budget) is sent
// again an epoch later, as a client told to retry would, so an overrun
// costs latency and shows in daemon.refused_frac instead of failing
// operations. A DELETE waits for its flow's POST to be accepted.
func (c daemonConfig) drive(s *server, in *daemonInput, tr *tracer) (time.Time, []sent) {
	out := make([]sent, len(in.requests))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.requests) {
					return
				}
				r, o := &in.requests[i], &out[i]
				dueAt := start.Add(r.due)
				time.Sleep(time.Until(dueAt))
				name := "daemon.submit"
				if r.method == http.MethodDelete {
					name = "daemon.cancel"
					post := &out[r.after]
					for post.status.Load() == 0 {
						time.Sleep(time.Millisecond)
					}
					if post.status.Load() != http.StatusAccepted {
						o.status.Store(-1) // nothing to cancel: the POST failed and is counted
						continue
					}
				}
				o.late = time.Since(dueAt)
				for {
					begin := time.Now()
					status := 0
					sp := tr.start(name, i+1, 0)
					req, err := http.NewRequest(r.method, s.base+r.path, bytes.NewReader(r.body))
					if err == nil {
						var resp *http.Response
						if resp, err = client.Do(req); err == nil {
							status = resp.StatusCode
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
					tr.end(sp)
					o.service = time.Since(begin)
					if status == http.StatusTooManyRequests && o.refusals < maxRetries {
						o.refusals++
						time.Sleep(c.epoch)
						continue
					}
					if status == 0 {
						status = -1
					}
					o.status.Store(int32(status))
					break
				}
			}
		}()
	}
	wg.Wait()
	return start, out
}

// daemonPass is what one load pass measured.
type daemonPass struct {
	completionMs          []float64
	submitMs, lateMs      []float64
	requests, badRequests int
	posts, refused        int
	tracked, misses       int
	unfinished            int
	accepted              int
	wall                  time.Duration
	cpu                   float64
	heapPeak              uint64
	drain                 time.Duration
	totals                engine.Totals
	acceptedPkts          int
	poll                  *poller
	flightStats           flight.Snapshot
	epochs                int
}

// pass starts a daemon, plays the schedule against it, waits for the
// accepted flows to drain, stops the daemon, and reads the flight recorder
// to time every tracked flow from its request's due time to the commit of
// the epoch that completed it.
func (c daemonConfig) pass(in *daemonInput, s *server, tr *tracer, res *result) (*daemonPass, error) {
	ps := &daemonPass{requests: len(in.requests)}
	runtime.GC() // the set-ups' garbage is not the pass's heap
	ps.poll = s.poll(c.pollEvery, tr != nil)
	hs := startHeapSampler()
	cpu0 := cpuSeconds()
	start, out := c.drive(s, in, tr)
	loadEnd := time.Now()

	accepted := make(map[int]bool)
	refusedOnce := make(map[int]bool)
	for i := range out {
		r, o := &in.requests[i], &out[i]
		status := int(o.status.Load())
		if r.method == http.MethodDelete && status == -1 {
			ps.requests-- // never sent: its POST failed
			continue
		}
		ps.lateMs = append(ps.lateMs, ms(o.late))
		want := http.StatusOK
		if r.method == http.MethodPost {
			want = http.StatusAccepted
			ps.posts += 1 + o.refusals
			ps.refused += o.refusals
			ps.submitMs = append(ps.submitMs, ms(o.service))
		}
		if status != want {
			ps.badRequests++
			res.violate("request %d (%s %s) answered %d", i+1, r.method, r.path, status)
			continue
		}
		if r.method == http.MethodPost {
			for _, id := range r.ids {
				accepted[id] = true
				refusedOnce[id] = o.refusals > 0
				ps.acceptedPkts += in.flows[id].size
			}
		}
	}
	ps.accepted = len(accepted)

	// Drained means the daemon's published totals know every accepted
	// packet and hold none of them in the queue or the backlog.
	drained := func(v epochsView) bool {
		return v.Totals.Submitted == ps.acceptedPkts && v.Backlog == 0 && v.queued() == 0
	}
	for deadline := loadEnd.Add(c.drainWait); !drained(ps.poll.view()) && time.Now().Before(deadline); {
		time.Sleep(c.pollEvery)
	}
	ps.drain = time.Since(loadEnd)
	ps.wall = time.Since(start)
	ps.cpu = cpuSeconds() - cpu0
	ps.heapPeak = hs.Stop()
	ps.poll.stop()
	ps.poll.once() // the final totals, with nothing in flight
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("daemon.Run: %w", err)
	}
	final := ps.poll.view()
	ps.totals, ps.epochs = final.Totals, final.Epoch
	if t := final.Totals; !drained(final) || t.Submitted != t.Delivered+t.Dropped+t.Cancelled+t.SurvivedRedundant {
		res.violate("the daemon did not drain within %v: accepted %d packets, totals %+v, backlog %d", c.drainWait, ps.acceptedPkts, t, final.Backlog)
	}

	completedIn := make(map[int]int)
	cancelled := make(map[int]bool)
	for _, ev := range s.rec.All() {
		switch ev.Kind {
		case flight.KindCompleted:
			completedIn[int(ev.Flow)] = int(ev.Epoch)
		case flight.KindCancelled:
			cancelled[int(ev.Flow)] = true
		}
	}
	ps.flightStats = s.rec.Stats()
	for id, info := range in.flows {
		if !s.rec.Tracks(int64(id)) {
			continue
		}
		epoch, done := completedIn[id]
		if info.deleted {
			// Whether the cancel beat the last delivery is a race the
			// workload leaves open: either end is fine, neither is not.
			if accepted[id] && !done && !cancelled[id] {
				ps.unfinished++
				res.violate("flow %d was accepted and cancelled but neither completed nor was cancelled", id)
			}
			continue
		}
		ps.tracked++
		at, stamped := ps.poll.commitAt[epoch]
		switch {
		case !accepted[id]:
			ps.misses++
		case !done || !stamped:
			ps.misses++
			ps.unfinished++
			res.violate("flow %d was accepted but never completed (epoch %d)", id, epoch)
		default:
			lat := at.Sub(start.Add(info.due))
			ps.completionMs = append(ps.completionMs, ms(lat))
			if lat > c.slo || refusedOnce[id] {
				ps.misses++
			}
		}
	}
	res.attempted += ps.requests + ps.tracked
	res.failed += ps.badRequests + ps.unfinished
	return ps, nil
}

// cpuPerKflow is the pass's process CPU per thousand accepted flows. The
// generator, the poller and the daemon share the process, as the issue
// that defined this benchmark specifies; the generator's share is the same
// on both sides of a comparison. It is a per-layer metric only: runs of one
// seed on a quiet host differ by a quarter in it (README.md, hazards).
func (ps *daemonPass) cpuPerKflow() float64 { return ps.cpu / (float64(ps.accepted) / 1e3) }

// run measures the workload. Untraced, one pass of rc.seconds of load.
// Traced, an untraced reference pass and a traced pass of half that each.
func (c daemonConfig) run(rc runConfig) (*result, *tracer, error) {
	res := newResult()
	res.network = "loopback (127.0.0.1), generator and daemon in one process"
	duration := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		duration /= 2
	}
	var in *daemonInput
	var srv *server
	setups, err := rc.repeatSetup(func() (err error) {
		if in, err = c.load(rc.seed, duration); err != nil {
			return err
		}
		srv, err = c.startServer(in.fabric)
		return err
	}, func() error { return srv.stop() })
	if err != nil {
		return nil, nil, err
	}
	res.samples["setups"] = len(setups)

	ref, err := c.pass(in, srv, nil, res)
	if err != nil {
		return nil, nil, err
	}
	res.samples["requests"] = ref.requests
	res.samples["tracked_flows"] = ref.tracked
	res.samples["epochs"] = ref.epochs
	if !rc.trace {
		if len(ref.completionMs) == 0 || ref.accepted == 0 {
			return res, nil, nil
		}
		res.set("setup_s", median(setups))
		res.set("op_ms_p50", median(ref.completionMs))
		res.set("flows_per_s", float64(ref.accepted)/ref.wall.Seconds())
		res.set("heap_peak_mb", mib(ref.heapPeak))
		res.set("psi_frac", float64(ref.totals.Psi)/(float64(ref.acceptedPkts)*traffic.WeightScale))
		res.set("delivered_frac", float64(ref.totals.Delivered)/float64(ref.totals.Submitted))
		return res, nil, nil
	}

	tr := newTracer()
	if srv, err = c.startServer(in.fabric); err != nil {
		return nil, tr, err
	}
	ps, err := c.pass(in, srv, tr, res)
	if err != nil {
		return nil, tr, err
	}
	if len(ps.completionMs) == 0 || ps.accepted == 0 || ref.accepted == 0 {
		return res, tr, nil
	}
	p := ps.poll
	var reported []float64
	overruns := 0
	for _, r := range p.records {
		reported = append(reported, float64(r.PlanMicros)/1e3)
		if r.Overrun {
			overruns++
		}
	}
	res.samples["traced_requests"] = ps.requests
	res.samples["traced_tracked_flows"] = ps.tracked
	res.samples["traced_epochs"] = len(p.records)
	res.set("daemon.submit_ms_p50", median(ps.submitMs))
	res.set("daemon.submit_ms_p99", percentile(ps.submitMs, 0.99))
	res.set("daemon.completion_ms_p90", percentile(ps.completionMs, 0.9))
	res.set("daemon.completion_ms_p99", percentile(ps.completionMs, 0.99))
	res.set("daemon.cpu_s_per_kflow", ref.cpuPerKflow())
	res.set("daemon.handler_submit_us_p50", c.handlerBench(in))
	res.set("daemon.status_ms_p50", median(p.statusMs))
	res.set("daemon.metrics_scrape_ms_p50", median(p.scrapeMs))
	if n := p.last.Epoch - p.firstEp; n > 0 {
		wallPerEpoch := p.commitAt[p.last.Epoch].Sub(p.firstAt) / time.Duration(n)
		res.set("daemon.epoch_stretch", float64(wallPerEpoch)/float64(c.epoch))
	}
	res.set("daemon.overrun_frac", float64(overruns)/float64(max(1, len(p.records))))
	res.set("daemon.refused_frac", float64(ps.refused)/float64(max(1, ps.posts)))
	res.set("daemon.slo_miss_frac", float64(ps.misses)/float64(max(1, ps.tracked)))
	res.set("daemon.generator_late_ms_p99", percentile(ps.lateMs, 0.99))
	res.set("daemon.generator_late_ms_max", percentile(ps.lateMs, 1))
	// Little's law: mean packets in the system over the delivery rate is
	// the mean time a packet spends in it, a cross-check of op_ms_p50.
	if ps.totals.Delivered > 0 {
		perSecond := float64(ps.totals.Delivered) / ps.wall.Seconds()
		res.set("daemon.sojourn_ms_mean", (mean(p.queue)+mean(p.backlog))/perSecond*1e3)
	}
	res.set("daemon.queued_pkts_mean", mean(p.queue))
	res.set("daemon.backlog_pkts_mean", mean(p.backlog))
	res.set("daemon.reported_plan_ms_p50", median(reported))
	res.set("daemon.drain_ms", ms(ps.drain))
	if st := ps.flightStats; st.TrackedFlows > 0 && st.Events > 0 {
		res.set("flight.events_per_flow", float64(st.Events)/float64(st.TrackedFlows))
		res.set("flight.retained_frac", float64(st.Retained)/float64(st.Events))
	}
	setCoreCounters(res, srv.reg, float64(max(1, ps.epochs)))
	res.set("traffic.shortest_route_us_p50", shortestRouteBench(in.fabric, rand.New(rand.NewSource(rc.seed))))
	res.set("obs.trace_overhead_frac", ps.cpuPerKflow()/ref.cpuPerKflow()-1)
	return res, tr, nil
}

// handlerBench times POST /v1/flows in the handler alone: ServeHTTP on a
// second daemon that is never run, so no socket, no loop and no contention
// are in the figure. It replays the schedule's first single-flow posts.
func (c daemonConfig) handlerBench(in *daemonInput) float64 {
	srv, err := daemon.New(c.options(in.fabric, obs.NewRegistry(), nil))
	if err != nil {
		return 0
	}
	h := srv.Handler()
	var samples []float64
	for _, r := range in.requests {
		if r.method != http.MethodPost || len(r.ids) != 1 {
			continue
		}
		req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		if d := time.Since(start); w.Code == http.StatusAccepted {
			samples = append(samples, us(d))
		}
		if len(samples) == 300 {
			break
		}
	}
	return median(samples)
}
