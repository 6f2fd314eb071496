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
	res, origin := s.ResidualLoadMap()
	if err := res.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("residual flows = %+v", res.Flows)
	}
	if len(origin) != 2 || origin[0] != 1 || origin[1] != 1 {
		t.Fatalf("origin = %v, want both residual flows traced to flow 1", origin)
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
	res, _ := s.ResidualLoadMap()
	if len(res.Flows) != 1 || len(res.Flows[0].Routes) != 2 {
		t.Fatalf("uncommitted residual = %+v", res.Flows)
	}
}
