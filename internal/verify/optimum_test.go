package verify_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"octopus/internal/algo"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

func TestBruteForceSingleHop(t *testing.T) {
	g := graph.Complete(2)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 3, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
	}}
	res, err := verify.BruteForce(g, load, verify.BruteOptions{Window: 5, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredOpt != 3 {
		t.Errorf("DeliveredOpt = %d, want 3", res.DeliveredOpt)
	}
	if want := 3 * traffic.Weight(1); res.PsiOpt != want {
		t.Errorf("PsiOpt = %d, want %d", res.PsiOpt, want)
	}
}

func TestBruteForceTwoHopRelay(t *testing.T) {
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 2, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
	}}
	// W=6, Δ=1: two configurations of α=2 move both packets over both hops.
	res, err := verify.BruteForce(g, load, verify.BruteOptions{Window: 6, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredOpt != 2 {
		t.Errorf("DeliveredOpt = %d, want 2", res.DeliveredOpt)
	}
	if want := 4 * traffic.Weight(2); res.PsiOpt != want {
		t.Errorf("PsiOpt = %d, want %d", res.PsiOpt, want)
	}
	// With W=4 only one full configuration fits usefully: 2 hops cross.
	res, err = verify.BruteForce(g, load, verify.BruteOptions{Window: 4, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredOpt != 1 {
		t.Errorf("W=4: DeliveredOpt = %d, want 1", res.DeliveredOpt)
	}
}

// Two flows competing for link (0,1): the optimum must pipeline flow B's
// first hop before flow A drains the link. Hand-solvable: OPT(ψ) = 3·w(1),
// OPT(throughput) = 3.
func TestBruteForceCompetingFlows(t *testing.T) {
	g := graph.Complete(3)
	load := &traffic.Load{Flows: []traffic.Flow{
		{ID: 1, Size: 2, Src: 0, Dst: 1, Routes: []traffic.Route{{0, 1}}},
		{ID: 2, Size: 2, Src: 0, Dst: 2, Routes: []traffic.Route{{0, 1, 2}}},
	}}
	res, err := verify.BruteForce(g, load, verify.BruteOptions{Window: 3, Delta: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 1: B crosses (0,1). Slot 2: A crosses (0,1) while B crosses
	// (1,2). Slot 3: A crosses (0,1). ψ = 2·w(1) + 2·w(2) = 3·w(1).
	if want := 2*traffic.Weight(1) + 2*traffic.Weight(2); res.PsiOpt != want {
		t.Errorf("PsiOpt = %d, want %d", res.PsiOpt, want)
	}
	if res.DeliveredOpt != 3 {
		t.Errorf("DeliveredOpt = %d, want 3", res.DeliveredOpt)
	}
}

func TestBruteForceEnvelope(t *testing.T) {
	big := graph.Complete(5)
	small := graph.Complete(3)
	one := func(size int, routes ...traffic.Route) *traffic.Load {
		return &traffic.Load{Flows: []traffic.Flow{
			{ID: 1, Size: size, Src: 0, Dst: 1, Routes: routes},
		}}
	}
	cases := []struct {
		name string
		g    *graph.Digraph
		load *traffic.Load
		opt  verify.BruteOptions
		want string
	}{
		{"too many nodes", big, one(1, traffic.Route{0, 1}), verify.BruteOptions{Window: 5}, "nodes exceed"},
		{"window too long", small, one(1, traffic.Route{0, 1}), verify.BruteOptions{Window: 13}, "window 13 exceeds"},
		{"too many packets", small, one(13, traffic.Route{0, 1}), verify.BruteOptions{Window: 5}, "packets exceed"},
		{"multi-route", small, one(1, traffic.Route{0, 1}, traffic.Route{0, 2, 1}), verify.BruteOptions{Window: 5}, "single-route"},
		{"no window", small, one(1, traffic.Route{0, 1}), verify.BruteOptions{}, "positive window"},
	}
	for _, tc := range cases {
		_, err := verify.BruteForce(tc.g, tc.load, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// No feasible schedule may beat the brute-force optimum: replaying random
// feasible schedules on tiny instances stays within OPT(ψ) and
// OPT(throughput).
func TestBruteForceDominatesRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		inst := verify.RandomTinyInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		res, err := verify.BruteForce(inst.G, inst.Load, verify.BruteOptions{Window: inst.Window, Delta: inst.Delta})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		for j := 0; j < 10; j++ {
			sch := randomFeasibleSchedule(inst.G, inst.Window, inst.Delta, rng)
			rep, err := verify.Schedule(inst.G, inst.Load, sch, verify.Options{Window: inst.Window})
			if err != nil {
				t.Fatalf("instance %d schedule %d: %v", i, j, err)
			}
			if rep.Psi > res.PsiOpt {
				t.Fatalf("instance %d: random schedule ψ=%d beats OPT(ψ)=%d", i, rep.Psi, res.PsiOpt)
			}
			if rep.Delivered > res.DeliveredOpt {
				t.Fatalf("instance %d: random schedule delivers %d > OPT=%d", i, rep.Delivered, res.DeliveredOpt)
			}
		}
	}
}

// The optima are monotone in the window length.
func TestBruteForceWindowMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 15; i++ {
		inst := verify.RandomTinyInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		prevPsi, prevDel := int64(-1), -1
		for w := 2; w <= 8; w++ {
			res, err := verify.BruteForce(inst.G, inst.Load, verify.BruteOptions{Window: w, Delta: inst.Delta})
			if err != nil {
				t.Fatal(err)
			}
			if res.PsiOpt < prevPsi || res.DeliveredOpt < prevDel {
				t.Fatalf("instance %d: OPT decreased going to W=%d: ψ %d->%d, delivered %d->%d",
					i, w, prevPsi, res.PsiOpt, prevDel, res.DeliveredOpt)
			}
			prevPsi, prevDel = res.PsiOpt, res.DeliveredOpt
		}
	}
}

// TestTheorem1AgainstBruteForce checks the paper's approximation guarantee
// against the true optimum: on every brute-forceable instance, plain
// Octopus's ψ is at least (1 − 1/e^{1/𝒟})·W/(W+Δ)·OPT(ψ) — and no core
// variant of the algorithm registry ever claims more than OPT.
func TestTheorem1AgainstBruteForce(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for checked < trials {
		inst := verify.RandomTinyInstance(rng)
		if len(inst.Load.Flows) == 0 {
			continue
		}
		checked++
		opt, err := verify.BruteForce(inst.G, inst.Load, verify.BruteOptions{
			Window: inst.Window, Delta: inst.Delta,
		})
		if err != nil {
			t.Fatalf("instance %d: %v", checked, err)
		}
		for _, a := range algo.Registry() {
			if !algo.IsCore(a) {
				continue
			}
			// KeepTrace arms Octopus+'s VerifyPlan audit.
			out, err := a.Run(inst.G, inst.Load, algo.Params{Window: inst.Window, Delta: inst.Delta, KeepTrace: true})
			if err != nil {
				t.Fatalf("instance %d: %s: %v", checked, a.Name(), err)
			}
			rep, err := out.Verify()
			if err != nil {
				t.Fatalf("instance %d: %s: %v", checked, a.Name(), err)
			}
			// Feasible schedules cannot beat the exhaustive optimum (under
			// the bulk semantics all core plans are claimed in).
			if rep.Psi > opt.PsiOpt {
				t.Fatalf("instance %d: %s ψ=%d exceeds OPT(ψ)=%d", checked, a.Name(), rep.Psi, opt.PsiOpt)
			}
			if rep.Delivered > opt.DeliveredOpt {
				t.Fatalf("instance %d: %s delivered %d > OPT=%d", checked, a.Name(), rep.Delivered, opt.DeliveredOpt)
			}
			if a.Name() != "octopus" {
				continue
			}
			d := float64(inst.Load.MaxHops())
			bound := (1 - math.Exp(-1/d)) * float64(inst.Window) / float64(inst.Window+inst.Delta)
			if float64(rep.Psi) < bound*float64(opt.PsiOpt)-1e-9 {
				t.Fatalf("instance %d: Octopus ψ=%d below Theorem 1 bound %.3f·OPT(ψ)=%.1f (OPT=%d, 𝒟=%v, W=%d, Δ=%d)",
					checked, rep.Psi, bound, bound*float64(opt.PsiOpt), opt.PsiOpt, d, inst.Window, inst.Delta)
			}
		}
	}
	t.Logf("Theorem 1 held on %d brute-forced instances", checked)
}
