package engine

import (
	"fmt"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// repair rewrites the plan's work load in place against its surviving
// fabric: flows keep the candidate routes that survived; flows whose every
// route died are discarded when a sibling copy of their redundancy group
// still has a live route (proactive redundancy absorbing the failure),
// otherwise rerouted onto a BFS shortest surviving path from their current
// position (reactive repair, when enabled); flows with no surviving path
// are dropped. Degradation counts accumulate onto the plan's stat, and the
// packets given up on are listed in plan.lost for Commit to retire.
func (p *Pipeline) repair(plan *Plan) {
	fabric, work, stat := plan.fabric, plan.work, &plan.Stat
	red, rec := p.cfg.Red, p.cfg.Flight
	// Pass 1: which redundancy groups still have a copy with a live route.
	// Computed before any repair, so reroutes never count as redundancy.
	var groupLive map[int]bool
	if !red.Empty() {
		groupLive = make(map[int]bool)
		for i := range work.Flows {
			f := &work.Flows[i]
			arrival, _ := p.arrivalOf(plan, f.ID)
			g, ok := red.GroupOf(arrival)
			if !ok || groupLive[g] {
				continue
			}
			for _, r := range f.Routes {
				if fabric.IsRoute(r) {
					groupLive[g] = true
					break
				}
			}
		}
	}
	kept := work.Flows[:0]
	for i := range work.Flows {
		f := work.Flows[i]
		nAlive := 0
		for _, r := range f.Routes {
			if fabric.IsRoute(r) {
				nAlive++
			}
		}
		switch {
		case nAlive == len(f.Routes):
			// Fully intact: nothing to do.
		case nAlive > 0:
			// Some candidates died; the survivors carry the flow.
			alive := make([]traffic.Route, 0, nAlive)
			for _, r := range f.Routes {
				if fabric.IsRoute(r) {
					alive = append(alive, r)
				}
			}
			f.Routes = alive
		default:
			arrival, src := p.arrivalOf(plan, f.ID)
			orig := int64(arrival)
			if g, ok := red.GroupOf(arrival); ok && groupLive[g] {
				// A sibling copy survives with a live route: the dead
				// copy's packets are redundant, not lost.
				stat.SurvivedRedundant += f.Size
				rec.Dedup(orig, plan.Epoch, int64(f.Size))
				plan.lost = append(plan.lost, loss{f.ID, f.Size})
				continue
			}
			var r traffic.Route
			ok := p.cfg.Reactive
			if ok {
				r, ok = traffic.ShortestRoute(fabric, f.Src, f.Dst)
			}
			if !ok {
				stat.Dropped += f.Size
				rec.Dropped(orig, plan.Epoch, int64(f.Size))
				plan.lost = append(plan.lost, loss{f.ID, f.Size})
				continue
			}
			if f.WeightHops > 0 && r.Hops() > f.WeightHops {
				// Keep the weight override consistent with the longer
				// repaired route (weights may only get smaller).
				f.WeightHops = r.Hops()
			}
			f.Routes = []traffic.Route{r}
			stat.Rerouted += f.Size
			rec.Repaired(orig, plan.Epoch, r.Hops(), int64(f.Size))
			if f.Src != src {
				stat.Stranded += f.Size
				rec.Requeued(orig, plan.Epoch, f.Src, int64(f.Size))
			}
		}
		kept = append(kept, f)
	}
	work.Flows = kept
}

// auditEpoch validates the epoch's plan against the fabric it was planned
// for, independently of the scheduler's own bookkeeping. For plain plans the
// replayed delivery must match the plan's claim exactly; Octopus+ and
// chained-benefit plans keep bookkeeping a forward replay cannot reproduce,
// so only the feasibility invariants are enforced for them.
func auditEpoch(fabric *graph.Digraph, load *traffic.Load, plan *core.Result, coreOpt core.Options, epoch int) error {
	vopt := verify.Options{
		Window:    coreOpt.Window,
		Ports:     coreOpt.Ports,
		MultiHop:  coreOpt.MultiHop,
		Epsilon64: coreOpt.Epsilon64,
	}
	if !coreOpt.MultiRoute && !coreOpt.MultiHop {
		vopt.Claim = &verify.Claim{Delivered: plan.Delivered, Hops: plan.Hops, Psi: plan.Psi}
	}
	if _, err := verify.Schedule(fabric, load, plan.Schedule, vopt); err != nil {
		return fmt.Errorf("engine: epoch %d plan failed verification against the surviving fabric: %w", epoch, err)
	}
	return nil
}
