// Package schedule defines circuit-network configuration sequences: the
// output of every scheduler in this repository and the input to the
// packet-level simulator.
//
// A Configuration (M, α) activates the set of links M for α time slots;
// switching between configurations costs the network's reconfiguration
// delay Δ. A Schedule is a sequence of configurations with total cost
// Σ(αₖ + Δ), which the MHS problem bounds by the window W.
package schedule

import (
	"fmt"
	"strings"

	"octopus/internal/graph"
)

// Configuration is one network configuration: the links active for Alpha
// consecutive time slots. For the single-port network model Links must form
// a matching of the fabric; for the K-ports model of the paper's §7 it must
// be a union of at most K matchings (checked by Validate with ports > 1).
type Configuration struct {
	Links []graph.Edge
	Alpha int
}

// String renders the configuration compactly, e.g. "(0->1 2->3, 50)".
func (c Configuration) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, e := range c.Links {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.String())
	}
	fmt.Fprintf(&b, ", %d)", c.Alpha)
	return b.String()
}

// Check is Validate's test of the k-th configuration of a schedule: a
// positive α and a valid ports-regular link set of g (ports < 1 means 1).
func (c Configuration) Check(g *graph.Digraph, k, ports int) error {
	ports = max(ports, 1)
	if c.Alpha <= 0 {
		return fmt.Errorf("schedule: configuration %d has non-positive duration %d", k, c.Alpha)
	}
	if !g.IsRegular(c.Links, ports) {
		return fmt.Errorf("schedule: configuration %d is not a valid %d-port link set", k, ports)
	}
	return nil
}

// Schedule is a sequence of configurations for a network with
// reconfiguration delay Delta (in time slots) and the service rules it was
// planned under: MultiHop chains hops within a configuration (§5), and
// Epsilon64 is Octopus-e's later-hop bonus in 1/64 units (0 = off).
type Schedule struct {
	Configs   []Configuration
	Delta     int
	MultiHop  bool
	Epsilon64 int
}

// Cost returns the total number of time slots the schedule consumes:
// Σ (αₖ + Δ). An empty schedule costs nothing.
func (s *Schedule) Cost() int {
	total := 0
	for _, c := range s.Configs {
		total += c.Alpha + s.Delta
	}
	return total
}

// ActiveLinkSlots returns Σ αₖ·|Mₖ|, the denominator of the paper's link
// utilization metric.
func (s *Schedule) ActiveLinkSlots() int64 {
	var total int64
	for _, c := range s.Configs {
		total += int64(c.Alpha) * int64(len(c.Links))
	}
	return total
}

// Validate checks the schedule against fabric g and window: every
// configuration must have positive α and a valid ports-regular link set,
// and the total cost must not exceed window (window <= 0 skips the cost
// check). ports < 1 is treated as 1.
func (s *Schedule) Validate(g *graph.Digraph, window, ports int) error {
	for k, c := range s.Configs {
		if err := c.Check(g, k, ports); err != nil {
			return err
		}
	}
	if window > 0 && s.Cost() > window {
		return fmt.Errorf("schedule: cost %d exceeds window %d", s.Cost(), window)
	}
	return nil
}

// Truncate reduces the schedule in place so its cost is at most window,
// shortening or dropping the last configurations as needed, mirroring the
// final step of the Octopus greedy loop. It reports whether anything was
// changed.
func (s *Schedule) Truncate(window int) bool {
	changed := false
	for len(s.Configs) > 0 && s.Cost() > window {
		last := &s.Configs[len(s.Configs)-1]
		excess := s.Cost() - window
		if last.Alpha > excess {
			last.Alpha -= excess
			changed = true
		} else {
			s.Configs = s.Configs[:len(s.Configs)-1]
			changed = true
		}
	}
	return changed
}
