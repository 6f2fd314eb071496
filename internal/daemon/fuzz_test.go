package daemon

import (
	"encoding/json"
	"slices"
	"testing"

	"octopus/internal/core"
	"octopus/internal/graph"
)

var (
	fuzzFabric = graph.Complete(4)
	fuzzCore   = core.Options{Window: 100, Delta: 5}
)

// FuzzFlowRequest hammers the daemon's untrusted-input surface: the
// POST /v1/flows body decoder must never panic, and anything it accepts
// must be well-formed enough to re-marshal and to survive per-flow
// validation without panicking.
func FuzzFlowRequest(f *testing.F) {
	f.Add([]byte(`{"src":0,"dst":1,"size":3}`))
	f.Add([]byte(`{"id":7,"src":2,"dst":0,"size":10,"routes":[[2,1,0]],"weight_hops":2}`))
	f.Add([]byte(`[{"src":0,"dst":1,"size":3},{"src":1,"dst":2,"size":1}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"src":0,"dst":1,"size":3}{"trailing":true}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`[{"routes":[[0,1,2,3,4,5,6,7,8,9,10,11,12,13]]}]`))
	f.Add([]byte(`{"id":-1,"src":-4,"dst":1099511627776,"size":-3}`))
	f.Add([]byte(`null`))

	s, err := New(Options{Fabric: fuzzFabric, Core: fuzzCore})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := decodeFlowRequests(data)
		if err != nil {
			return
		}
		if len(reqs) == 0 || len(reqs) > maxBatch {
			t.Fatalf("decoder accepted a batch of %d", len(reqs))
		}
		if _, err := json.Marshal(reqs); err != nil {
			t.Fatalf("accepted batch does not re-marshal: %v", err)
		}
		for _, req := range reqs {
			flow, err := s.buildFlow(req, fuzzFabric)
			if err != nil {
				continue
			}
			if flow.Size <= 0 || flow.Size > maxFlowSize {
				t.Fatalf("validated flow has size %d", flow.Size)
			}
			if len(flow.Routes) == 0 {
				t.Fatal("validated flow has no routes")
			}
		}
	})
}

// FuzzFabricRequest hammers the POST /v1/fabric body decoder: it must never
// panic, anything it accepts must re-marshal and decode back to the same
// request, and a small accepted request must build a fabric or be refused
// without panicking.
func FuzzFabricRequest(f *testing.F) {
	f.Add([]byte(`{"n":3,"complete":true}`))
	f.Add([]byte(`{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`))
	f.Add([]byte(`{"n":3,"complete":true} {"n":99}`))
	f.Add([]byte(`{"n":3,"complete":true}}`))
	f.Add([]byte(`{"n":4,"edges":[[0,9]]}`))
	f.Add([]byte(`{"n":-1,"edges":[[0,0,0]]}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeFabricRequest(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		back, err := decodeFabricRequest(again)
		if err != nil || back.N != req.N || back.Complete != req.Complete || !slices.Equal(back.Edges, req.Edges) {
			t.Fatalf("round trip of %+v gave %+v, %v", req, back, err)
		}
		if req.N > 64 {
			return // a complete fabric that large is slow to build, not a decode fault
		}
		if g, err := buildFabric(req); err == nil && g.N() != req.N {
			t.Fatalf("fabric for %+v has %d nodes", req, g.N())
		}
	})
}
