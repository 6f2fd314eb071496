package algo

import (
	"errors"
	"fmt"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// Makespan solves the makespan-minimization problem of §7: the smallest
// window W that fully serves the load, found by binary search over W with
// Octopus as the feasibility oracle. opt.Window is ignored; the other
// options select the Octopus variant. Returns the minimal window and the
// corresponding result.
func Makespan(g *graph.Digraph, load *traffic.Load, opt core.Options) (int, *core.Result, error) {
	total := load.TotalPackets()
	if total == 0 {
		return 0, nil, errors.New("algo: makespan of an empty load")
	}
	feasible := func(w int) (*core.Result, error) {
		o := opt
		o.Window = w
		s, err := core.New(g, load, o)
		if err != nil {
			return nil, err
		}
		res, err := s.Run()
		if err != nil {
			return nil, err
		}
		if res.Pending == 0 {
			return res, nil
		}
		return nil, nil
	}
	// Exponential search for an upper bound.
	lo := opt.Delta + 1
	hi := lo + opt.Delta + load.TotalHops() // serve one giant matching at a time
	var hiRes *core.Result
	for {
		res, err := feasible(hi)
		if err != nil {
			return 0, nil, err
		}
		if res != nil {
			hiRes = res
			break
		}
		if hi > load.TotalHops()*(opt.Delta+2)+opt.Delta+1 {
			return 0, nil, fmt.Errorf("algo: makespan: no feasible window found up to %d", hi)
		}
		hi *= 2
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		res, err := feasible(mid)
		if err != nil {
			return 0, nil, err
		}
		if res != nil {
			hi = mid
			hiRes = res
		} else {
			lo = mid + 1
		}
	}
	return hi, hiRes, nil
}
