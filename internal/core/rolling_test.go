package core

import (
	"testing"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

func TestResidualLoad(t *testing.T) {
	// Flow advanced halfway: the residual is the route suffix from the
	// intermediate node.
	g := graph.Complete(4)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 10, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 3}}},
	}}
	s, err := New(g, load, Options{Window: 100, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.tr.apply([]graph.Edge{{From: 0, To: 1}}, 4)
	res := s.ResidualLoad()
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("residual flows = %+v", res.Flows)
	}
	// 6 packets still at the source with the full route, 4 at node 1 with
	// the suffix.
	var atSrc, atMid *traffic.Flow
	for i := range res.Flows {
		f := &res.Flows[i]
		switch f.Src {
		case 0:
			atSrc = f
		case 1:
			atMid = f
		}
	}
	if atSrc == nil || atSrc.Size != 6 || atSrc.Routes[0].Hops() != 2 {
		t.Fatalf("source residual = %+v", atSrc)
	}
	if atMid == nil || atMid.Size != 4 || !atMid.Routes[0].Equal(traffic.Route{1, 3}) {
		t.Fatalf("mid residual = %+v", atMid)
	}
}

func TestResidualLoadUncommitted(t *testing.T) {
	g := graph.Complete(4)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 8, Src: 0, Dst: 3, Routes: []traffic.Route{{0, 1, 3}, {0, 2, 3}}},
	}}
	s, err := New(g, load, Options{Window: 100, Delta: 5, MultiRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	res := s.ResidualLoad()
	if len(res.Flows) != 1 || len(res.Flows[0].Routes) != 2 {
		t.Fatalf("uncommitted residual = %+v", res.Flows)
	}
}

func TestRunWindowsConvergesToFullDelivery(t *testing.T) {
	g, load := randomInstance(t, 61, 10, 300)
	opt := Options{Window: 300, Delta: 10}
	// One window delivers only part of the traffic.
	s, err := New(g, load, opt)
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if one.Pending == 0 {
		t.Skip("single window already delivers everything")
	}
	ws, err := RunWindows(g, load, opt, 50)
	if err != nil {
		t.Fatal(err)
	}
	total := TotalDelivered(ws)
	if total != load.TotalPackets() {
		t.Fatalf("rolling windows delivered %d of %d", total, load.TotalPackets())
	}
	if last := ws[len(ws)-1]; last.Residual != 0 {
		t.Fatalf("final residual %d", last.Residual)
	}
	// Conservation per window: offered = delivered + residual.
	for i, w := range ws {
		if w.Offered != w.Result.Delivered+w.Residual {
			t.Fatalf("window %d: %d != %d + %d", i, w.Offered, w.Result.Delivered, w.Residual)
		}
	}
	// Every window's schedule is structurally valid.
	for i, w := range ws {
		if err := w.Result.Schedule.Validate(g, 0, 1); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	if len(ws[0].Result.Schedule.Configs) == 0 {
		t.Fatal("first window planned nothing")
	}
}

func TestRunWindowsRejectsBadCount(t *testing.T) {
	g, load := randomInstance(t, 1, 6, 50)
	if _, err := RunWindows(g, load, Options{Window: 50, Delta: 5}, 0); err == nil {
		t.Fatal("windows=0 accepted")
	}
}
