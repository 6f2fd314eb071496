// Package verify is the independent correctness layer for every scheduler
// in this repository: a validator that replays any schedule against the
// fabric and traffic load and checks every feasibility invariant of the
// MHS problem, and an exhaustive brute-force reference solver that computes
// the true optimum on tiny instances.
//
// The schedulers in internal/core and the baselines of internal/algo each
// keep their own bookkeeping of what they deliver; verify.Schedule re-derives those
// numbers from nothing but the schedule itself, using a deliberately
// simple, separate replay implementation, so no algorithm grades its own
// homework. verify.BruteForce closes the loop by measuring the gap to
// OPT(ψ) and OPT(throughput), which is how the paper's Theorem 1 guarantee
// is checked empirically (see internal/verify/diff).
//
// The package intentionally imports only the model packages (graph,
// schedule, traffic), never the schedulers, so scheduler test packages can
// use it without import cycles.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"octopus/internal/graph"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// Claim is a scheduler's own account of what its schedule achieves.
// Schedule checks it against the independent replay.
type Claim struct {
	Delivered int
	Hops      int
	Psi       int64 // in traffic.WeightScale units
}

// Options configures Schedule validation.
type Options struct {
	// Window, when positive, requires Σ(αₖ+Δ) ≤ Window and truncates the
	// replay exactly like simulate.Run does.
	Window int

	// Ports is the per-node port count of the K-ports model (§7); 0 or 1
	// selects the single-port model where every configuration must be a
	// matching of the fabric.
	Ports int

	// Undirected, when set, additionally requires every configuration to
	// be a direction-paired matching of the undirected fabric (§7
	// bidirectional links): each active link must appear in both
	// directions and the underlying undirected edges must form a matching.
	Undirected *graph.Ugraph

	// MultiHop replays with the §5 relaxation: a packet that crosses a
	// link at slot t may cross the next link of its route from slot t+1
	// within the same configuration.
	MultiHop bool

	// Epsilon64 orders link queues by the Octopus-e hop weight
	// (1 + x·ε/64) during replay, matching a scheduler run with the same
	// core option. ψ accounting always uses the plain packet weight.
	Epsilon64 int

	// Claim, when set, requires the replayed delivered/hops/ψ to equal the
	// scheduler's claim exactly.
	Claim *Claim
}

// Report is the outcome of a successful validation: the independently
// replayed measurements.
type Report struct {
	Delivered int
	Hops      int
	Psi       int64
	SlotsUsed int
	Configs   int // configurations (fully or partially) replayed
}

// Schedule validates sch against fabric g carrying load, independently of
// any scheduler bookkeeping. It checks, in order:
//
//   - the load is well-formed: positive sizes, unique IDs, and every route
//     a duplicate-free path of g connecting the flow's endpoints;
//   - every configuration has α > 0 and its links form a valid Ports-port
//     link set of g (and, with Options.Undirected, a direction-paired
//     undirected matching);
//   - the total cost Σ(αₖ+Δ) fits Options.Window;
//   - packets advance only along their flow's first route with hop causality
//     and no link ever carries more than αₖ packets per configuration
//     (both enforced constructively by the replay);
//   - the replayed delivered/hops/ψ match Options.Claim.
//
// On success it returns the replayed measurements.
func Schedule(g *graph.Digraph, load *traffic.Load, sch *schedule.Schedule, opt Options) (*Report, error) {
	ports := max(opt.Ports, 1)
	if sch.Delta < 0 {
		return nil, fmt.Errorf("verify: negative reconfiguration delay %d", sch.Delta)
	}
	if err := checkLoad(g, load); err != nil {
		return nil, err
	}
	if err := checkConfigs(g, sch, ports, opt.Undirected); err != nil {
		return nil, err
	}
	if opt.Window > 0 {
		cost := 0
		for _, c := range sch.Configs {
			cost += c.Alpha + sch.Delta
		}
		if cost > opt.Window {
			return nil, fmt.Errorf("verify: schedule cost %d exceeds window %d", cost, opt.Window)
		}
	}
	rep := replay(load, sch, opt)
	if c := opt.Claim; c != nil && (rep.Delivered != c.Delivered || rep.Hops != c.Hops || rep.Psi != c.Psi) {
		return nil, fmt.Errorf("verify: replay (%d pkts, %d hops, ψ=%d) does not match claim (%d, %d, %d)",
			rep.Delivered, rep.Hops, rep.Psi, c.Delivered, c.Hops, c.Psi)
	}
	return rep, nil
}

// checkLoad re-derives the load invariants without calling
// traffic.Load.Validate, so a bug there cannot mask a bad load here.
func checkLoad(g *graph.Digraph, load *traffic.Load) error {
	ids := make(map[int]bool, len(load.Flows))
	for i := range load.Flows {
		f := &load.Flows[i]
		if ids[f.ID] {
			return fmt.Errorf("verify: duplicate flow ID %d", f.ID)
		}
		ids[f.ID] = true
		if f.Size <= 0 {
			return fmt.Errorf("verify: flow %d has non-positive size %d", f.ID, f.Size)
		}
		if len(f.Routes) == 0 {
			return fmt.Errorf("verify: flow %d has no routes", f.ID)
		}
		for _, r := range f.Routes {
			if len(r) < 2 || len(r)-1 > traffic.MaxRouteLen {
				return fmt.Errorf("verify: flow %d route %v has invalid length", f.ID, r)
			}
			if r[0] != f.Src || r[len(r)-1] != f.Dst {
				return fmt.Errorf("verify: flow %d route %v does not connect %d->%d", f.ID, r, f.Src, f.Dst)
			}
			if f.WeightHops > 0 && len(r)-1 > f.WeightHops {
				return fmt.Errorf("verify: flow %d route %v longer than WeightHops %d", f.ID, r, f.WeightHops)
			}
			seen := make(map[int]bool, len(r))
			for k, v := range r {
				if v < 0 || v >= g.N() {
					return fmt.Errorf("verify: flow %d route node %d outside fabric", f.ID, v)
				}
				if seen[v] {
					return fmt.Errorf("verify: flow %d route %v repeats node %d", f.ID, r, v)
				}
				seen[v] = true
				if k > 0 && !g.HasEdge(r[k-1], r[k]) {
					return fmt.Errorf("verify: flow %d route hop %d->%d is not a fabric link", f.ID, r[k-1], r[k])
				}
			}
		}
	}
	return nil
}

// checkConfigs re-derives the per-configuration structural invariants
// without calling graph.IsRegular or schedule.Validate.
func checkConfigs(g *graph.Digraph, sch *schedule.Schedule, ports int, u *graph.Ugraph) error {
	for k, c := range sch.Configs {
		if c.Alpha <= 0 {
			return fmt.Errorf("verify: configuration %d has non-positive duration %d", k, c.Alpha)
		}
		outDeg := make(map[int]int, len(c.Links))
		inDeg := make(map[int]int, len(c.Links))
		dup := make(map[graph.Edge]bool, len(c.Links))
		for _, e := range c.Links {
			if !g.HasEdge(e.From, e.To) {
				return fmt.Errorf("verify: configuration %d activates absent link %v", k, e)
			}
			if dup[e] {
				return fmt.Errorf("verify: configuration %d activates link %v twice", k, e)
			}
			dup[e] = true
			outDeg[e.From]++
			inDeg[e.To]++
			if outDeg[e.From] > ports {
				return fmt.Errorf("verify: configuration %d uses %d output ports at node %d (max %d)",
					k, outDeg[e.From], e.From, ports)
			}
			if inDeg[e.To] > ports {
				return fmt.Errorf("verify: configuration %d uses %d input ports at node %d (max %d)",
					k, inDeg[e.To], e.To, ports)
			}
		}
		if u != nil {
			if err := checkUndirected(u, c.Links, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkUndirected requires links to be a direction-paired matching of u:
// every directed link's reverse is also active, and the underlying
// undirected edges touch each node at most once.
func checkUndirected(u *graph.Ugraph, links []graph.Edge, k int) error {
	have := make(map[graph.Edge]bool, len(links))
	for _, e := range links {
		have[e] = true
	}
	deg := make(map[int]int)
	seen := make(map[graph.UEdge]bool)
	for _, e := range links {
		if !have[graph.Edge{From: e.To, To: e.From}] {
			return fmt.Errorf("verify: configuration %d activates %v without its reverse direction", k, e)
		}
		ue := graph.NormUEdge(e.From, e.To)
		if seen[ue] {
			continue
		}
		seen[ue] = true
		if !u.HasEdge(e.From, e.To) {
			return fmt.Errorf("verify: configuration %d activates absent undirected link %v", k, ue)
		}
		deg[e.From]++
		deg[e.To]++
		if deg[e.From] > 1 || deg[e.To] > 1 {
			return fmt.Errorf("verify: configuration %d is not an undirected matching at link %v", k, ue)
		}
	}
	return nil
}

// vgroup is a set of interchangeable packets during replay: same flow, same
// route, same position, same availability slot.
type vgroup struct {
	flowID int
	route  traffic.Route
	wlen   int   // hop count the packet weight derives from
	weight int64 // plain per-packet ψ weight
	prio   int64 // ε-adjusted queueing priority for the upcoming hop
	pos    int   // current node is route[pos]
	count  int
	avail  int // first global slot at which these packets may move
}

// replayState carries the replay bookkeeping.
type replayState struct {
	eps    int
	queues map[graph.Edge][]*vgroup
	rep    Report
}

func (st *replayState) enqueue(g *vgroup) {
	g.prio = traffic.HopWeight(g.wlen, g.pos, st.eps)
	e := graph.Edge{From: g.route[g.pos], To: g.route[g.pos+1]}
	st.queues[e] = append(st.queues[e], g)
}

// serve transmits up to want packets over link e among groups available at
// or before availBy; crossed packets become available at nextAvail.
func (st *replayState) serve(e graph.Edge, want, availBy, nextAvail int) int {
	q := st.queues[e]
	if len(q) == 0 || want <= 0 {
		return 0
	}
	elig := q[:0:0]
	for _, g := range q {
		if g.count > 0 && g.avail <= availBy {
			elig = append(elig, g)
		}
	}
	sort.SliceStable(elig, func(i, j int) bool {
		if elig[i].prio != elig[j].prio {
			return elig[i].prio > elig[j].prio
		}
		return elig[i].flowID < elig[j].flowID
	})
	served := 0
	for _, g := range elig {
		if served == want {
			break
		}
		take := min(want-served, g.count)
		g.count -= take
		served += take
		st.rep.Hops += take
		st.rep.Psi += int64(take) * g.weight
		if g.pos+1 == len(g.route)-1 {
			st.rep.Delivered += take
		} else {
			st.enqueue(&vgroup{
				flowID: g.flowID,
				route:  g.route,
				wlen:   g.wlen,
				weight: g.weight,
				pos:    g.pos + 1,
				count:  take,
				avail:  nextAvail,
			})
		}
	}
	if served > 0 {
		live := q[:0]
		for _, g := range q {
			if g.count > 0 {
				live = append(live, g)
			}
		}
		st.queues[e] = live
	}
	return served
}

// replay runs the independent packet-level replay, mirroring the semantics
// of simulate.Run (bulk or multi-hop mode, window truncation) with a
// separate implementation.
func replay(load *traffic.Load, sch *schedule.Schedule, opt Options) *Report {
	st := &replayState{eps: opt.Epsilon64, queues: make(map[graph.Edge][]*vgroup)}
	for i := range load.Flows {
		f := &load.Flows[i]
		r := f.Routes[0]
		st.enqueue(&vgroup{
			flowID: f.ID,
			route:  r,
			wlen:   f.WeightLen(r),
			weight: traffic.Weight(f.WeightLen(r)),
			pos:    0,
			count:  f.Size,
			avail:  0,
		})
	}
	slot := 0
	for _, cfg := range sch.Configs {
		if opt.Window > 0 && slot+sch.Delta >= opt.Window {
			break
		}
		slot += sch.Delta
		alpha := cfg.Alpha
		if opt.Window > 0 && slot+alpha > opt.Window {
			alpha = opt.Window - slot
		}
		if alpha <= 0 {
			break
		}
		st.rep.Configs++
		if opt.MultiHop {
			links := slices.Clone(cfg.Links)
			slices.SortFunc(links, func(a, b graph.Edge) int { return cmp.Or(a.From-b.From, a.To-b.To) })
			for s := 0; s < alpha; s++ {
				moved := 0
				for _, e := range links {
					moved += st.serve(e, 1, slot+s, slot+s+1)
				}
				if moved == 0 {
					break
				}
			}
		} else {
			for _, e := range cfg.Links {
				st.serve(e, alpha, slot, slot+alpha)
			}
		}
		slot += alpha
	}
	st.rep.SlotsUsed = slot
	return &st.rep
}
