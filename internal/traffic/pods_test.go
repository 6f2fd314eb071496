package traffic

import (
	"math/rand"
	"reflect"
	"testing"

	"octopus/internal/graph"
)

func TestPodSyntheticValidAndDeterministic(t *testing.T) {
	p := DefaultPodParams(4, 6, 64)
	s1, err := PodSynthetic(p, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Materialize(nil).Validate(p.Fabric()); err != nil {
		t.Fatalf("generated pod load invalid: %v", err)
	}
	wantFlows := (p.LargePerPod + p.SmallPerPod) * p.Pods
	if s1.Len() != wantFlows {
		t.Fatalf("Len = %d, want %d", s1.Len(), wantFlows)
	}
	wantPackets := int64((p.LargeTotal + p.SmallTotal) * p.Pods)
	if s1.TotalPackets() != wantPackets {
		t.Fatalf("TotalPackets = %d, want %d", s1.TotalPackets(), wantPackets)
	}
	s2, err := PodSynthetic(p, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Materialize(nil), s2.Materialize(nil)) {
		t.Fatal("same seed produced different loads")
	}
	s3, err := PodSynthetic(p, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1.Materialize(nil), s3.Materialize(nil)) {
		t.Fatal("different seeds produced identical loads")
	}
}

func TestPodSyntheticInterPodMix(t *testing.T) {
	p := DefaultPodParams(4, 8, 128)
	s, err := PodSynthetic(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	inter := 0
	for i := 0; i < s.Len(); i++ {
		if graph.PodOf(s.Src(i), p.PodSize) != graph.PodOf(s.Dst(i), p.PodSize) {
			inter++
		}
	}
	frac := float64(inter) / float64(s.Len())
	if frac < 0.15 || frac > 0.45 {
		t.Fatalf("inter-pod flow fraction %.2f far from InterFrac %.2f", frac, p.InterFrac)
	}
	// Inter-pod routes cross exactly one fabric link between pods.
	for i := 0; i < s.Len(); i++ {
		f := s.FlowAt(i)
		srcPod := graph.PodOf(f.Src, p.PodSize)
		dstPod := graph.PodOf(f.Dst, p.PodSize)
		crossings := 0
		for k := 0; k+1 < len(f.Routes[0]); k++ {
			if graph.PodOf(f.Routes[0][k], p.PodSize) != graph.PodOf(f.Routes[0][k+1], p.PodSize) {
				crossings++
			}
		}
		if srcPod == dstPod && crossings != 0 {
			t.Fatalf("intra-pod flow %d leaves its pod: %v", f.ID, f.Routes[0])
		}
		if srcPod != dstPod && crossings != 1 {
			t.Fatalf("inter-pod flow %d crosses %d pod boundaries: %v", f.ID, crossings, f.Routes[0])
		}
	}
}

func TestPodSyntheticLocalOnly(t *testing.T) {
	p := DefaultPodParams(3, 4, 32)
	p.InterFrac = 0
	s, err := PodSynthetic(p, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if graph.PodOf(s.Src(i), p.PodSize) != graph.PodOf(s.Dst(i), p.PodSize) {
			t.Fatalf("flow %d crosses pods with InterFrac=0", i)
		}
	}
}

func TestPodParamsCheck(t *testing.T) {
	bad := []PodParams{
		{Pods: 0, PodSize: 4, LargePerPod: 1},
		{Pods: 2, PodSize: 1, LargePerPod: 1},
		{Pods: 2, PodSize: 4},
		{Pods: 2, PodSize: 4, LargePerPod: 1, InterFrac: 1.5},
		{Pods: 2, PodSize: 4, LargePerPod: 1, InterFrac: 0.5, InterLinks: 0},
	}
	for i, p := range bad {
		if err := PodSyntheticEmit(p, rand.New(rand.NewSource(1)), func(Flow) error { return nil }); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestPodSyntheticEmitMatchesStore(t *testing.T) {
	p := DefaultPodParams(2, 4, 16)
	var streamed []Flow
	if err := PodSyntheticEmit(p, rand.New(rand.NewSource(9)), func(f Flow) error {
		streamed = append(streamed, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s, err := PodSynthetic(p, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Materialize(nil).Flows, streamed) {
		t.Fatal("streaming and store generation disagree")
	}
}
