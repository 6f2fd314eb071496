package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/strictjson"
	"octopus/internal/traffic"
)

// FlowRequest is one flow submission on POST /v1/flows. A request body is
// either a single object or a JSON array of them (one batch is admitted at
// one boundary). Omitted IDs are auto-assigned; omitted routes default to
// a BFS shortest path on the current fabric.
type FlowRequest struct {
	ID         int     `json:"id,omitempty"`
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	Size       int     `json:"size"`
	Routes     [][]int `json:"routes,omitempty"`
	WeightHops int     `json:"weight_hops,omitempty"`
}

// FabricRequest describes a replacement fabric on POST /v1/fabric: either
// Complete (a complete digraph on N nodes) or an explicit edge list.
type FabricRequest struct {
	N        int      `json:"n"`
	Complete bool     `json:"complete,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
}

// decodeFlowRequests parses a POST /v1/flows body: one FlowRequest object
// or an array of at most maxBatch of them, with unknown fields and
// trailing data rejected. This is the daemon's untrusted-input surface and
// is covered by FuzzFlowRequest.
func decodeFlowRequests(data []byte) ([]FlowRequest, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, errors.New("empty request body")
	}
	var reqs []FlowRequest
	if trimmed[0] == '[' {
		if err := strictjson.Decode(bytes.NewReader(trimmed), &reqs); err != nil {
			return nil, fmt.Errorf("invalid flow batch: %w", err)
		}
	} else {
		var one FlowRequest
		if err := strictjson.Decode(bytes.NewReader(trimmed), &one); err != nil {
			return nil, fmt.Errorf("invalid flow: %w", err)
		}
		reqs = []FlowRequest{one}
	}
	if len(reqs) == 0 {
		return nil, errors.New("empty flow batch")
	}
	if len(reqs) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds the %d-flow limit", len(reqs), maxBatch)
	}
	return reqs, nil
}

// decodeFabricRequest parses a POST /v1/fabric body, with unknown fields
// and trailing data rejected. It is covered by FuzzFabricRequest.
func decodeFabricRequest(data []byte) (FabricRequest, error) {
	var req FabricRequest
	if err := strictjson.Decode(bytes.NewReader(data), &req); err != nil {
		return FabricRequest{}, fmt.Errorf("invalid fabric: %w", err)
	}
	return req, nil
}

// buildFlow validates one request against the fabric and materializes the
// traffic.Flow to submit, assigning an ID when the caller left it zero.
func (s *Server) buildFlow(req FlowRequest, fab *graph.Digraph) (traffic.Flow, error) {
	if req.Size <= 0 || req.Size > maxFlowSize {
		return traffic.Flow{}, fmt.Errorf("flow size %d out of range (0, %d]", req.Size, maxFlowSize)
	}
	if req.ID < 0 {
		return traffic.Flow{}, fmt.Errorf("flow ID %d must not be negative", req.ID)
	}
	if req.Src < 0 || req.Src >= fab.N() || req.Dst < 0 || req.Dst >= fab.N() {
		return traffic.Flow{}, fmt.Errorf("endpoints %d->%d outside the %d-node fabric", req.Src, req.Dst, fab.N())
	}
	if req.Src == req.Dst {
		return traffic.Flow{}, fmt.Errorf("flow endpoints coincide at node %d", req.Src)
	}
	f := traffic.Flow{
		ID:         req.ID,
		Src:        req.Src,
		Dst:        req.Dst,
		Size:       req.Size,
		WeightHops: req.WeightHops,
	}
	if f.ID == 0 {
		f.ID = int(s.autoID.Add(1))
	}
	if len(req.Routes) > 0 {
		f.Routes = make([]traffic.Route, len(req.Routes))
		for i, r := range req.Routes {
			f.Routes[i] = traffic.Route(r)
		}
	} else {
		r, ok := traffic.ShortestRoute(fab, f.Src, f.Dst)
		if !ok {
			return traffic.Flow{}, fmt.Errorf("no route from %d to %d on the current fabric", f.Src, f.Dst)
		}
		f.Routes = []traffic.Route{r}
	}
	one := &traffic.Load{Flows: []traffic.Flow{f}}
	if err := one.Validate(fab); err != nil {
		return traffic.Flow{}, err
	}
	return f, nil
}

// buildFabric validates a FabricRequest and constructs the digraph.
func buildFabric(req FabricRequest) (*graph.Digraph, error) {
	if req.N < 2 || req.N > 1<<14 {
		return nil, fmt.Errorf("fabric size %d out of range [2, %d]", req.N, 1<<14)
	}
	if req.Complete {
		if len(req.Edges) > 0 {
			return nil, errors.New("complete fabric must not list edges")
		}
		return graph.Complete(req.N), nil
	}
	if len(req.Edges) == 0 {
		return nil, errors.New("fabric needs edges (or complete: true)")
	}
	g := graph.New(req.N)
	for _, e := range req.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= req.N || v < 0 || v >= req.N || u == v {
			return nil, fmt.Errorf("invalid edge %d->%d in a %d-node fabric", u, v, req.N)
		}
		if !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g, nil
}

// planFingerprint is a short stable hash of a plan's schedule JSON (the
// same construction as the engine-extraction golden tests), empty for
// unscheduled epochs.
func planFingerprint(res *core.Result) string {
	if res == nil || res.Schedule == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := res.Schedule.WriteJSON(&buf); err != nil {
		return ""
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8])
}

// Handler returns the daemon's HTTP handler: the /v1 API plus the
// observability endpoints (/metrics, /debug/vars, /debug/pprof) of the
// daemon's registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(s.reg))
	mux.HandleFunc("POST /v1/flows", s.handleSubmit)
	mux.HandleFunc("GET /v1/flows", s.handleFlows)
	mux.HandleFunc("DELETE /v1/flows/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/flows/{id}/events", s.handleFlowEvents)
	mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/fabric", s.handleFabric)
	mux.HandleFunc("POST /v1/fabric", s.handleReload)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.overloaded.Load() {
		writeError(w, http.StatusTooManyRequests,
			errors.New("planning is overrunning the epoch budget; retry later"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	reqs, err := decodeFlowRequests(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// One batch is stamped with one boundary and queued under one lock, so
	// it is admitted as a unit.
	fab, at := s.fab.Load(), int(s.boundary.Load())
	batch := make([]engine.Arrival, len(reqs))
	ids := make([]int, len(reqs))
	batchPkts := 0
	for i, req := range reqs {
		f, err := s.buildFlow(req, fab)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		batch[i], ids[i] = engine.Arrival{Flow: f, At: at}, f.ID
		batchPkts += f.Size
	}
	if s.pipe.QueuedPackets()+batchPkts > s.opt.QueueLimit {
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("queue limit of %d packets exceeded", s.opt.QueueLimit))
		return
	}
	if err := s.pipe.SubmitAll(batch); err != nil {
		var be *engine.BatchError
		errors.As(err, &be)
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":    err.Error(),
			"accepted": ids[:be.Index],
		})
		return
	}
	s.reg.Gauge("octopus_daemon_queued_packets").Set(int64(s.pipe.QueuedPackets()))
	writeJSON(w, http.StatusAccepted, map[string]any{"accepted": ids, "at": at})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid flow ID %q", r.PathValue("id")))
		return
	}
	if !s.pipe.Cancel(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown flow %d", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": id})
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	totals, backlog := s.totals, s.backlog
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"queued_flows":    s.pipe.QueuedFlows(),
		"queued_packets":  s.pipe.QueuedPackets(),
		"backlog_packets": backlog,
		"totals":          totals,
	})
}

func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := append([]EpochRecord(nil), s.ring...)
	totals, epochs, backlog := s.totals, s.epochs, s.backlog
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":           epochs,
		"boundary":        s.boundary.Load(),
		"overloaded":      s.overloaded.Load(),
		"backlog_packets": backlog,
		"totals":          totals,
		"epochs":          recs,
	})
}

// handleFlowEvents serves GET /v1/flows/{id}/events: the flight recorder's
// retained lifecycle journal for one flow.
func (s *Server) handleFlowEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.opt.Flight
	if rec == nil {
		writeError(w, http.StatusNotFound, errors.New("flight recorder disabled (start with -flight)"))
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid flow ID %q", r.PathValue("id")))
		return
	}
	type eventJSON struct {
		Seq   uint64 `json:"seq"`
		Ev    string `json:"ev"`
		Epoch int32  `json:"epoch"`
		A     int64  `json:"a"`
		B     int64  `json:"b"`
		C     int64  `json:"c"`
	}
	evs := rec.Events(int64(id))
	out := make([]eventJSON, len(evs))
	for i, e := range evs {
		out[i] = eventJSON{Seq: e.Seq, Ev: e.Kind.String(), Epoch: e.Epoch, A: e.A, B: e.B, C: e.C}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"flow":    id,
		"tracked": rec.Tracks(int64(id)),
		"sample":  rec.Sample(),
		"events":  out,
	})
}

// handleStatus serves GET /v1/status: the one-call operational roll-up —
// epoch progress, totals (ψ, delivered), planning latency percentiles, and
// the flight recorder's SLO snapshot.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	totals, epochs, backlog := s.totals, s.epochs, s.backlog
	s.mu.Unlock()
	plan := s.reg.Duration("octopus_daemon_plan_seconds")
	st := map[string]any{
		"epoch":             epochs,
		"boundary":          s.boundary.Load(),
		"overloaded":        s.overloaded.Load(),
		"queued_packets":    s.pipe.QueuedPackets(),
		"backlog_packets":   backlog,
		"totals":            totals,
		"plan_p50_seconds":  time.Duration(plan.Quantile(0.50)).Seconds(),
		"plan_p99_seconds":  time.Duration(plan.Quantile(0.99)).Seconds(),
		"plan_overruns":     s.reg.Counter("octopus_daemon_plan_overruns_total").Value(),
		"plan_lead_seconds": time.Duration(s.lead.Load()).Seconds(),
	}
	if s.opt.Flight != nil {
		st["flight"] = s.opt.Flight.Stats()
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFabric(w http.ResponseWriter, r *http.Request) {
	g := s.fab.Load()
	edges := g.Edges()
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{e.From, e.To}
	}
	writeJSON(w, http.StatusOK, map[string]any{"n": g.N(), "links": g.M(), "edges": out})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	req, err := decodeFabricRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	g, err := buildFabric(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The driver loop applies the reload just before it plans the next
	// epoch and replies at once; the response waits for that outcome.
	rr := reloadReq{g: g, reply: make(chan error, 1)}
	select {
	case s.reloadCh <- rr:
	case <-s.done:
		writeError(w, http.StatusServiceUnavailable, errors.New("daemon is shutting down"))
		return
	case <-time.After(reloadWait):
		writeError(w, http.StatusServiceUnavailable, errors.New("timed out waiting for an epoch boundary"))
		return
	}
	if err := <-rr.reply; errors.Is(err, engine.ErrFabricTooSmall) {
		writeError(w, http.StatusConflict, err)
	} else if err != nil {
		writeError(w, http.StatusBadRequest, err)
	} else {
		writeJSON(w, http.StatusOK, map[string]any{"n": g.N(), "links": g.M()})
	}
}
