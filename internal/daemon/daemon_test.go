package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/engine"
	"octopus/internal/graph"
	"octopus/internal/obs/flight"
	"octopus/internal/traffic"
)

// testServer boots a daemon on an ephemeral port and returns its base URL
// plus a shutdown func that cancels the run and waits for a clean exit.
func testServer(t *testing.T, opt Options) (*Server, string, func()) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)
	return s, base, func() {
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Errorf("daemon exit: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon did not shut down")
		}
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/epochs")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

type epochsResp struct {
	Epoch          int           `json:"epoch"`
	Boundary       int           `json:"boundary"`
	Overloaded     bool          `json:"overloaded"`
	BacklogPackets int           `json:"backlog_packets"`
	Totals         engine.Totals `json:"totals"`
	Epochs         []EpochRecord `json:"epochs"`
}

func testFlows(n int) []FlowRequest {
	flows := make([]FlowRequest, n)
	for i := range flows {
		flows[i] = FlowRequest{
			ID:   i + 1,
			Src:  i % 5,
			Dst:  (i + 2) % 5,
			Size: 3 + 5*i,
		}
	}
	return flows
}

// TestDaemonMatchesSequentialEngine is the acceptance test for pipelined
// planning: the daemon — planning each epoch concurrently with the
// previous epoch's wall-clock execution, under live HTTP traffic — must
// produce exactly the schedule sequence of a single-threaded engine drive
// over the same arrival batch. Run under -race in CI.
func TestDaemonMatchesSequentialEngine(t *testing.T) {
	g := graph.Complete(5)
	copt := core.Options{Window: 40, Delta: 4}
	flows := testFlows(6)

	// Sequential reference: one batch admitted at a single boundary, driven
	// to drain with no concurrency.
	ref, err := engine.New(g, engine.Config{Core: copt, Repair: true, Reactive: true, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range flows {
		r, ok := traffic.ShortestRoute(g, fr.Src, fr.Dst)
		if !ok {
			t.Fatal("no route")
		}
		f := traffic.Flow{ID: fr.ID, Src: fr.Src, Dst: fr.Dst, Size: fr.Size, Routes: []traffic.Route{r}}
		if err := ref.Submit(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wantFPs []string
	wantTotal := 0
	for i := 0; i < 1000; i++ {
		plan, err := ref.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		if fp := planFingerprint(plan.Result()); fp != "" {
			wantFPs = append(wantFPs, fp)
		}
		if _, err := ref.Commit(plan); err != nil {
			t.Fatal(err)
		}
		if plan.Kind == engine.PlanDrained {
			break
		}
	}
	for _, fr := range flows {
		wantTotal += fr.Size
	}
	if ref.Totals().Delivered != wantTotal {
		t.Fatalf("reference did not deliver everything: %+v", ref.Totals())
	}

	// Live daemon on the same fabric/options, fed the same batch over HTTP.
	_, base, shutdown := testServer(t, Options{
		Fabric:           graph.Complete(5),
		Core:             copt,
		EpochDuration:    2 * time.Millisecond,
		Audit:            true,
		FingerprintPlans: true,
	})
	defer shutdown()
	status, body := postJSON(t, base+"/v1/flows", flows)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}

	var er epochsResp
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, base+"/v1/epochs", &er)
		if er.Totals.Delivered == wantTotal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never delivered the batch: %+v", er.Totals)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var gotFPs []string
	for _, rec := range er.Epochs {
		if rec.SchedFP != "" {
			gotFPs = append(gotFPs, rec.SchedFP)
		}
	}
	if len(gotFPs) != len(wantFPs) {
		t.Fatalf("scheduled-epoch count: daemon %d, sequential %d\ndaemon %v\nsequential %v",
			len(gotFPs), len(wantFPs), gotFPs, wantFPs)
	}
	for i := range gotFPs {
		if gotFPs[i] != wantFPs[i] {
			t.Fatalf("epoch %d schedule diverged: daemon %s, sequential %s", i, gotFPs[i], wantFPs[i])
		}
	}
	if er.Totals.Psi != ref.Totals().Psi {
		t.Fatalf("psi diverged: daemon %d, sequential %d", er.Totals.Psi, ref.Totals().Psi)
	}
}

func TestDaemonAPI(t *testing.T) {
	_, base, shutdown := testServer(t, Options{
		Fabric:        graph.Complete(4),
		Core:          core.Options{Window: 50, Delta: 2},
		EpochDuration: 2 * time.Millisecond,
		Audit:         true,
	})
	defer shutdown()

	t.Run("fabric", func(t *testing.T) {
		var fr struct {
			N     int      `json:"n"`
			Links int      `json:"links"`
			Edges [][2]int `json:"edges"`
		}
		getJSON(t, base+"/v1/fabric", &fr)
		if fr.N != 4 || fr.Links != 12 || len(fr.Edges) != 12 {
			t.Fatalf("fabric: %+v", fr)
		}
	})

	t.Run("submit and deliver", func(t *testing.T) {
		status, body := postJSON(t, base+"/v1/flows", FlowRequest{ID: 7, Src: 0, Dst: 2, Size: 5})
		if status != http.StatusAccepted {
			t.Fatalf("submit: %d %s", status, body)
		}
		var er epochsResp
		deadline := time.Now().Add(20 * time.Second)
		for er.Totals.Delivered < 5 {
			if time.Now().After(deadline) {
				t.Fatalf("flow never delivered: %+v", er.Totals)
			}
			time.Sleep(5 * time.Millisecond)
			getJSON(t, base+"/v1/epochs", &er)
		}
		if er.Totals.Submitted != 5 {
			t.Fatalf("totals: %+v", er.Totals)
		}
	})

	t.Run("rejects", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			req  FlowRequest
			want int
		}{
			{"duplicate ID", FlowRequest{ID: 7, Src: 0, Dst: 1, Size: 2}, http.StatusConflict},
			{"bad size", FlowRequest{Src: 0, Dst: 1, Size: 0}, http.StatusBadRequest},
			{"bad endpoint", FlowRequest{Src: 0, Dst: 99, Size: 2}, http.StatusBadRequest},
			{"self loop", FlowRequest{Src: 1, Dst: 1, Size: 2}, http.StatusBadRequest},
			{"bad route", FlowRequest{Src: 0, Dst: 1, Size: 2, Routes: [][]int{{0, 3}}}, http.StatusBadRequest},
		} {
			status, body := postJSON(t, base+"/v1/flows", tc.req)
			if status != tc.want {
				t.Errorf("%s: got %d %s, want %d", tc.name, status, body, tc.want)
			}
		}
		resp, err := http.Post(base+"/v1/flows", "application/json", strings.NewReader(`{"id":1,`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("truncated JSON: got %d", resp.StatusCode)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		status, body := postJSON(t, base+"/v1/flows", FlowRequest{ID: 900, Src: 0, Dst: 3, Size: 4})
		if status != http.StatusAccepted {
			t.Fatalf("submit: %d %s", status, body)
		}
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/flows/900", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel: %d", resp.StatusCode)
		}
		req, _ = http.NewRequest(http.MethodDelete, base+"/v1/flows/424242", nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("cancel unknown: %d", resp.StatusCode)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, want := range []string{
			"octopus_daemon_plan_overruns_total",
			"octopus_daemon_queued_packets",
			"octopus_online_epochs_total",
			"octopus_engine_live_flows",
			"octopus_engine_conservation_violations_total 0\n",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("metrics missing %s", want)
			}
		}
	})

	t.Run("reload", func(t *testing.T) {
		status, body := postJSON(t, base+"/v1/fabric", FabricRequest{N: 6, Complete: true})
		if status != http.StatusOK {
			t.Fatalf("reload: %d %s", status, body)
		}
		var fr struct {
			N int `json:"n"`
		}
		getJSON(t, base+"/v1/fabric", &fr)
		if fr.N != 6 {
			t.Fatalf("fabric after reload: %+v", fr)
		}
		// A flow using the grown fabric's new nodes must now be accepted.
		status, body = postJSON(t, base+"/v1/flows", FlowRequest{Src: 4, Dst: 5, Size: 2})
		if status != http.StatusAccepted {
			t.Fatalf("submit on reloaded fabric: %d %s", status, body)
		}
		// Invalid fabrics are rejected outright.
		for _, bad := range []FabricRequest{
			{N: 1, Complete: true},
			{N: 4},
			{N: 4, Edges: [][2]int{{0, 9}}},
		} {
			status, _ := postJSON(t, base+"/v1/fabric", bad)
			if status != http.StatusBadRequest {
				t.Errorf("bad fabric %+v: got %d", bad, status)
			}
		}
		// A fabric too small for live flows is refused with 409.
		status, body = postJSON(t, base+"/v1/flows", FlowRequest{ID: 7000, Src: 4, Dst: 5, Size: 50000})
		if status != http.StatusAccepted {
			t.Fatalf("submit: %d %s", status, body)
		}
		status, body = postJSON(t, base+"/v1/fabric", FabricRequest{N: 3, Complete: true})
		if status != http.StatusConflict {
			t.Fatalf("shrink under live flow: %d %s", status, body)
		}
		// A second value after the fabric is a malformed body, not a reload.
		resp, err := http.Post(base+"/v1/fabric", "application/json", strings.NewReader(`{"n":6,"complete":true} {"n":99}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("fabric body with trailing data: %d", resp.StatusCode)
		}
	})
}

// TestDaemonFlightAndStatus drives a flight-recording daemon through a full
// flow lifecycle and checks the two new surfaces: GET /v1/flows/{id}/events
// must journal admitted → planned → delivered → completed in order, and
// GET /v1/status must roll up the SLO snapshot and plan percentiles.
func TestDaemonFlightAndStatus(t *testing.T) {
	rec := flight.New(flight.Config{SLOEpochs: 64})
	_, base, shutdown := testServer(t, Options{
		Fabric:        graph.Complete(4),
		Core:          core.Options{Window: 50, Delta: 2},
		EpochDuration: 2 * time.Millisecond,
		Audit:         true,
		Flight:        rec,
	})
	defer shutdown()

	status, body := postJSON(t, base+"/v1/flows", []FlowRequest{
		{ID: 11, Src: 0, Dst: 2, Size: 5},
		{ID: 12, Src: 3, Dst: 1, Size: 7},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var er epochsResp
	deadline := time.Now().Add(20 * time.Second)
	for er.Totals.Delivered < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("flows never delivered: %+v", er.Totals)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, base+"/v1/epochs", &er)
	}

	var ev struct {
		Flow    int  `json:"flow"`
		Tracked bool `json:"tracked"`
		Sample  int  `json:"sample"`
		Events  []struct {
			Seq   uint64 `json:"seq"`
			Ev    string `json:"ev"`
			Epoch int32  `json:"epoch"`
			A     int64  `json:"a"`
		} `json:"events"`
	}
	getJSON(t, base+"/v1/flows/11/events", &ev)
	if ev.Flow != 11 || !ev.Tracked || ev.Sample != 1 {
		t.Fatalf("events envelope: %+v", ev)
	}
	var names []string
	for _, e := range ev.Events {
		names = append(names, e.Ev)
	}
	want := []string{"admitted", "planned", "delivered", "completed"}
	got := map[string]int{}
	for i, n := range names {
		if _, seen := got[n]; !seen {
			got[n] = i
		}
	}
	last := -1
	for _, n := range want {
		i, ok := got[n]
		if !ok {
			t.Fatalf("lifecycle missing %q: %v", n, names)
		}
		if i < last {
			t.Fatalf("lifecycle out of order at %q: %v", n, names)
		}
		last = i
	}
	if ev.Events[0].A != 5 { // admitted carries the flow size
		t.Fatalf("admitted size: %+v", ev.Events[0])
	}

	var st struct {
		Epoch          int            `json:"epoch"`
		PlanP99Seconds float64        `json:"plan_p99_seconds"`
		Totals         engine.Totals  `json:"totals"`
		Flight         map[string]any `json:"flight"`
	}
	getJSON(t, base+"/v1/status", &st)
	if st.Epoch == 0 || st.Totals.Delivered != 12 {
		t.Fatalf("status progress: %+v", st)
	}
	if st.PlanP99Seconds <= 0 {
		t.Fatalf("plan p99 not observed: %+v", st)
	}
	if st.Flight == nil {
		t.Fatal("status missing the flight snapshot")
	}
	if frac, ok := st.Flight["on_time_fraction"].(float64); !ok || frac != 1 {
		t.Fatalf("on-time fraction: %v", st.Flight)
	}
	if comp, ok := st.Flight["completed"].(float64); !ok || comp != 2 {
		t.Fatalf("completed flows: %v", st.Flight)
	}
}

// TestDaemonFlightDisabled pins the no-recorder behavior: per-flow events
// 404 with a pointer to the flag, and /v1/status serves without a flight
// section.
func TestDaemonFlightDisabled(t *testing.T) {
	_, base, shutdown := testServer(t, Options{
		Fabric:        graph.Complete(4),
		Core:          core.Options{Window: 50, Delta: 2},
		EpochDuration: 2 * time.Millisecond,
	})
	defer shutdown()
	resp, err := http.Get(base + "/v1/flows/1/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events without a recorder: %d", resp.StatusCode)
	}
	var st map[string]any
	getJSON(t, base+"/v1/status", &st)
	if _, ok := st["flight"]; ok {
		t.Fatal("status has a flight section without a recorder")
	}
	if _, ok := st["totals"]; !ok {
		t.Fatal("status missing totals")
	}
}

func TestDaemonBackpressure(t *testing.T) {
	_, base, shutdown := testServer(t, Options{
		Fabric:        graph.Complete(4),
		Core:          core.Options{Window: 50, Delta: 2},
		EpochDuration: time.Millisecond,
		QueueLimit:    10,
	})
	defer shutdown()
	// A batch beyond the queue limit is rejected with 429 up front.
	status, body := postJSON(t, base+"/v1/flows", []FlowRequest{
		{ID: 1, Src: 0, Dst: 1, Size: 8},
		{ID: 2, Src: 1, Dst: 2, Size: 8},
	})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-limit batch: %d %s", status, body)
	}
}

func TestDaemonDrainsOnShutdown(t *testing.T) {
	s, base, shutdown := testServer(t, Options{
		Fabric:        graph.Complete(4),
		Core:          core.Options{Window: 20, Delta: 2},
		EpochDuration: 50 * time.Millisecond, // slow epochs: undelivered at cancel time
		DrainTimeout:  20 * time.Second,
	})
	status, body := postJSON(t, base+"/v1/flows", FlowRequest{ID: 1, Src: 0, Dst: 1, Size: 200})
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	shutdown() // cancels the context; Run must drain the backlog before returning
	tot := s.pipe.Totals()
	if tot.Delivered != 200 {
		t.Fatalf("shutdown did not drain: %+v", tot)
	}
}

// TestRunGracefulShutdown: requests are answered until the context is
// cancelled, after which Run drains the HTTP server and returns nil and the
// listener no longer accepts.
func TestRunGracefulShutdown(t *testing.T) {
	_, base, shutdown := testServer(t, Options{
		Fabric: graph.Complete(4),
		Core:   core.Options{Window: 20, Delta: 2},
	})
	var er epochsResp
	getJSON(t, base+"/v1/epochs", &er)
	shutdown() // fails the test unless Run returns nil
	if resp, err := http.Get(base + "/v1/epochs"); err == nil {
		resp.Body.Close()
		t.Fatal("server still answering after a clean shutdown")
	}
}

// TestRunListenerFailure: a listener that dies on its own ends Run with the
// serve error instead of hanging until the context is cancelled.
func TestRunListenerFailure(t *testing.T) {
	s, err := New(Options{Fabric: graph.Complete(4), Core: core.Options{Window: 20, Delta: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background(), ln) }()
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after the listener failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not notice the dead listener")
	}
}

func TestDecodeFlowRequests(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		fail bool
	}{
		{`{"src":0,"dst":1,"size":3}`, 1, false},
		{`[{"src":0,"dst":1,"size":3},{"id":9,"src":1,"dst":2,"size":1}]`, 2, false},
		{``, 0, true},
		{`  `, 0, true},
		{`[]`, 0, true},
		{`{"src":0,"dst":1,"size":3}{"src":1}`, 0, true},
		{`{"src":0,"unknown_field":1}`, 0, true},
		{`[{"src":0,"dst":1,"size":3}] trailing`, 0, true},
		{`"just a string"`, 0, true},
		{`42`, 0, true},
	} {
		got, err := decodeFlowRequests([]byte(tc.in))
		if tc.fail {
			if err == nil {
				t.Errorf("decode(%q): expected error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("decode(%q): %v", tc.in, err)
			continue
		}
		if len(got) != tc.n {
			t.Errorf("decode(%q): %d requests, want %d", tc.in, len(got), tc.n)
		}
	}
	big := make([]FlowRequest, maxBatch+1)
	data, _ := json.Marshal(big)
	if _, err := decodeFlowRequests(data); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestKindNames(t *testing.T) {
	for k, want := range map[engine.PlanKind]string{
		engine.PlanScheduled:     "scheduled",
		engine.PlanIdle:          "idle",
		engine.PlanJitterSkipped: "jitter-skipped",
		engine.PlanDrained:       "drained",
		engine.PlanKind(99):      "unknown",
	} {
		if got := kindName(k); got != want {
			t.Errorf("kindName(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("nil fabric accepted")
	}
	if _, err := New(Options{Fabric: graph.Complete(3)}); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestDaemonReportsPlanTimeNotEpochTime pins plan_micros to the planner's
// own duration: the loop used to take it after sleeping out the rest of the
// epoch, so every record read one epoch of wall time.
func TestDaemonReportsPlanTimeNotEpochTime(t *testing.T) {
	const epoch = 50 * time.Millisecond
	s, base, shutdown := testServer(t, Options{
		Fabric:        graph.Complete(5),
		Core:          core.Options{Window: 50, Delta: 2},
		EpochDuration: epoch,
	})
	defer shutdown()
	if status, body := postJSON(t, base+"/v1/flows", testFlows(5)); status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, body)
	}
	var er epochsResp
	deadline := time.Now().Add(20 * time.Second)
	for len(er.Epochs) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d epochs committed", len(er.Epochs))
		}
		time.Sleep(epoch / 2)
		getJSON(t, base+"/v1/epochs", &er)
	}
	for _, rec := range er.Epochs {
		if !rec.Overrun && rec.PlanMicros >= (epoch/2).Microseconds() {
			t.Errorf("epoch %d: plan_micros %d is not well under the %v epoch", rec.Epoch, rec.PlanMicros, epoch)
		}
	}
	if p50 := time.Duration(s.reg.Duration("octopus_daemon_plan_seconds").Quantile(0.5)); p50 >= epoch/2 {
		t.Errorf("octopus_daemon_plan_seconds p50 %v is not well under the %v epoch", p50, epoch)
	}
}

func TestPlanLead(t *testing.T) {
	const epoch = 25 * time.Millisecond
	full := func(d time.Duration) []time.Duration {
		w := make([]time.Duration, planWindow)
		for i := range w {
			w[i] = time.Duration(i) * time.Microsecond
		}
		w[planWindow/2] = d
		return w
	}
	for _, tc := range []struct {
		name   string
		recent []time.Duration
		want   time.Duration
	}{
		{"no plan yet", nil, epoch},
		{"fewer than the window", full(time.Millisecond)[:planWindow-1], epoch},
		{"longest plus the guard", full(3 * time.Millisecond), 3*time.Millisecond + planGuard},
		{"capped at the epoch", full(epoch - planGuard/2), epoch},
		{"an overrun in the window", full(epoch + epoch/10), epoch},
	} {
		if got := planLead(epoch, tc.recent); got != tc.want {
			t.Errorf("%s: planLead = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMidEpochArrivalMakesTheNextPlan: once planLead has measured its
// window, the snapshot for epoch k+1 is taken a lead before the boundary,
// not at the commit of epoch k, so a flow posted just after a commit joins
// the very next plan instead of waiting an extra epoch.
func TestMidEpochArrivalMakesTheNextPlan(t *testing.T) {
	const epoch = 50 * time.Millisecond
	s, base, shutdown := testServer(t, Options{
		Fabric:        graph.Complete(5),
		Core:          core.Options{Window: 50, Delta: 2},
		EpochDuration: epoch,
	})
	defer shutdown()
	committed := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.epochs
	}
	for committed() < planWindow {
		time.Sleep(epoch / 5)
	}
	// Catch a commit as it happens and post at once. Each attempt lets two
	// commits pass first, so an earlier attempt's flow is never in the
	// record the next one reads.
	next, size := -1, 0
	for attempt := 1; next < 0; attempt++ {
		if attempt > 5 {
			t.Fatal("could not post within 10 ms of a commit")
		}
		k := committed() + 2
		for committed() < k {
			time.Sleep(100 * time.Microsecond)
		}
		seen := time.Now()
		size = 2 + attempt
		status, body := postJSON(t, base+"/v1/flows", FlowRequest{ID: attempt, Src: 0, Dst: 1, Size: size})
		if status != http.StatusAccepted {
			t.Fatalf("submit: %d %s", status, body)
		}
		if time.Since(seen) < 10*time.Millisecond && committed() == k {
			next = k // the record of the epoch planned after commit k
		}
	}
	var er epochsResp
	deadline := time.Now().Add(20 * time.Second)
	for committed() <= next+1 {
		if time.Now().After(deadline) {
			t.Fatal("the daemon stopped committing")
		}
		time.Sleep(epoch / 5)
	}
	getJSON(t, base+"/v1/epochs", &er)
	for _, rec := range er.Epochs {
		if rec.Epoch == next {
			if rec.Arrived != size {
				t.Fatalf("epoch %d admitted %d packets, want the %d posted just after the commit before it", next, rec.Arrived, size)
			}
			return
		}
	}
	t.Fatalf("no record of epoch %d in %+v", next, er.Epochs)
}

// TestBatchConflictListsAcceptedPrefix: a batch is queued as a unit up to
// its first duplicate ID; the 409 names the flows queued before it, and
// the flows after it are not queued.
func TestBatchConflictListsAcceptedPrefix(t *testing.T) {
	s, err := New(Options{Fabric: graph.Complete(4), Core: core.Options{Window: 50, Delta: 2}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (code int, out struct {
		Accepted []int  `json:"accepted"`
		Error    string `json:"error"`
	}) {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/flows", strings.NewReader(body)))
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return w.Code, out
	}
	if code, out := post(`[{"id":1,"src":0,"dst":1,"size":2},{"id":2,"src":1,"dst":2,"size":2}]`); code != http.StatusAccepted {
		t.Fatalf("first batch: %d %+v", code, out)
	}
	code, out := post(`[{"id":3,"src":0,"dst":1,"size":2},{"id":3,"src":1,"dst":2,"size":2},{"id":4,"src":2,"dst":3,"size":2}]`)
	if code != http.StatusConflict || len(out.Accepted) != 1 || out.Accepted[0] != 3 ||
		out.Error != "engine: duplicate arrival flow ID 3" {
		t.Fatalf("batch with a duplicate: %d %+v", code, out)
	}
	if got := s.pipe.QueuedFlows(); got != 3 {
		t.Fatalf("%d flows queued, want 3", got)
	}
}
