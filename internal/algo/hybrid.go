package algo

import (
	"fmt"

	"octopus/internal/graph"
	"octopus/internal/hybrid"
	"octopus/internal/traffic"
	"octopus/internal/verify"
)

// hybridAlgo is the §7 hybrid circuit/packet scheme: the packet network
// absorbs small flows first, Octopus schedules the residual. The circuit
// plan's bookkeeping is claimed exactly against the residual load; the
// combined delivery is the outcome metric.
type hybridAlgo struct{}

func (hybridAlgo) Name() string { return "hybrid" }
func (hybridAlgo) Describe() string {
	return "Hybrid circuit/packet scheme (§7): packet network absorbs rate·W per port (rate=0.1), Octopus schedules the rest"
}
func (hybridAlgo) Kind() Kind { return Offline }

func (hybridAlgo) Run(g *graph.Digraph, load *traffic.Load, p Params) (*Outcome, error) {
	rate := p.PacketRate
	if rate == 0 {
		rate = 0.1
	}
	res, err := hybrid.Schedule(g, load, baseOptions(p), rate)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Algo:      "hybrid",
		Fabric:    g,
		Load:      load,
		Delivered: res.Delivered(),
		Total:     res.TotalPackets,
		// The packet network is full-bisection: one hop per packet it
		// absorbs; the circuit hops add on top.
		Hops:          res.PacketDelivered,
		PacketNetHops: res.PacketDelivered,
	}
	if res.Circuit != nil {
		c := res.Circuit
		out.Load = res.Residual
		out.Schedule = c.Schedule
		out.Plan = &PlanInfo{
			Iterations: c.Iterations,
			Delivered:  c.Delivered,
			Hops:       c.Hops,
			Psi:        c.Psi,
		}
		out.Hops += c.Hops
		out.Psi = c.Psi
		out.ActiveLinkSlots = c.Schedule.ActiveLinkSlots()
		out.Reconfigs = len(c.Schedule.Configs)
		out.SlotsUsed = c.Schedule.Cost()
		out.VerifyOpt = verify.Options{
			Window:    p.Window,
			Ports:     p.Ports,
			Epsilon64: p.Epsilon64,
			Claim:     &verify.Claim{Delivered: c.Delivered, Hops: c.Hops, Psi: c.Psi},
		}
	}
	out.Extra = func() error {
		if res.PacketDelivered < 0 || res.Delivered() > res.TotalPackets {
			return fmt.Errorf("hybrid delivered %d (packet %d) of %d packets",
				res.Delivered(), res.PacketDelivered, res.TotalPackets)
		}
		return nil
	}
	return out, nil
}
