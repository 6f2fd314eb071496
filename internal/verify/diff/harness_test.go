// Package diff is the differential verification harness: it runs every
// algorithm in the internal/algo registry — the Octopus core variants, the
// baselines, and the schedule-free UB entry — over shared random
// instances and funnels each outcome through its
// verification recipe (verify.Schedule with the scheduler's own claimed
// metrics attached, or the schedule-free invariants). A scheduler whose
// bookkeeping drifts from the independently replayed truth, or whose
// schedule violates any MHS feasibility invariant, fails here regardless
// of what its own tests say.
//
// The roster is derived from algo.Registry(), so a newly registered
// algorithm is differentially tested by construction — there is no list
// here to forget to update.
//
// The package is tests only, and lives below internal/verify so that it can
// import the schedulers through internal/algo while verify stays
// cycle-free.
package diff

import (
	"bytes"
	"fmt"

	"octopus/internal/algo"
	"octopus/internal/verify"
)

// Outcome is one algorithm's registry outcome on one instance, with the
// harness's checking and fingerprinting attached.
type Outcome struct {
	*algo.Outcome
}

// Check validates the outcome — verify.Schedule plus the algorithm's Extra
// invariants for schedule-producing algorithms, the basic metric
// invariants for schedule-free ones — and returns the replay report.
func (o *Outcome) Check() (*verify.Report, error) {
	return o.Outcome.Verify()
}

// Fingerprint is a deterministic rendering of the outcome (schedule bytes
// plus claimed and reported metrics), used to assert run-to-run
// determinism.
func (o *Outcome) Fingerprint() (string, error) {
	var buf bytes.Buffer
	if o.Schedule != nil {
		if err := o.Schedule.WriteJSON(&buf); err != nil {
			return "", err
		}
	}
	if c := o.VerifyOpt.Claim; c != nil {
		fmt.Fprintf(&buf, "claim:%d,%d,%d", c.Delivered, c.Hops, c.Psi)
	}
	fmt.Fprintf(&buf, "metrics:%d,%d,%d,%d", o.Delivered, o.Total, o.Hops, o.Psi)
	return buf.String(), nil
}

// Runner is one algorithm under differential test.
type Runner struct {
	Name string
	// Core marks the internal/core variants (used by the variant-gap
	// comparisons).
	Core bool
	Run  func(in *verify.Instance) (*Outcome, error)
}

// Runners derives the full roster from the algorithm registry.
func Runners() []Runner {
	var rs []Runner
	for _, a := range algo.Registry() {
		a := a
		rs = append(rs, Runner{
			Name: a.Name(),
			Core: algo.IsCore(a),
			Run: func(in *verify.Instance) (*Outcome, error) {
				out, err := a.Run(in.G, in.Load, algo.Params{
					Window: in.Window,
					Delta:  in.Delta,
					// KeepTrace arms Octopus+'s VerifyPlan audit (the other
					// algorithms ignore it). Seed stays 0 so repeated runs of
					// octopus-random draw identical routes.
					KeepTrace: true,
				})
				if err != nil {
					return nil, err
				}
				return &Outcome{Outcome: out}, nil
			},
		})
	}
	return rs
}
