// Package lec implements combinational logic equivalence checking, the
// reproduction's substitute for Cadence Conformal LEC in the Fig. 3
// flow (the locked netlist must be formally equivalent to the original
// under the correct key; non-equivalent locking attempts are rejected).
//
// The checker rewrites both circuits into one shared strashed
// AND-inverter graph (internal/aig), shrinks it with one pass of cut
// rewriting (always on), sweeps the unresolved cones with
// complement-canonical simulation signatures and bounded SAT probes,
// and decides the surviving observable pairs over a Tseitin-on-AIG
// miter with the internal CDCL solver. A bit-parallel
// random-simulation prefilter catches most non-equivalences cheaply.
// Sequential designs are checked combinationally with flip-flops
// matched by name (register correspondence), the standard approach.
package lec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sim"
)

// ErrCancelled is returned when a check was cut short by Options.Stop
// before reaching a verdict.
var ErrCancelled = errors.New("lec: check cancelled")

// Result reports the outcome of an equivalence check.
type Result struct {
	// Equivalent is true when the circuits implement the same function
	// for every input (and state) assignment.
	Equivalent bool
	// Counterexample, for non-equivalent circuits, assigns input (and
	// flip-flop) names to values that distinguish the circuits. It is
	// nil when the prefilter found the mismatch.
	Counterexample map[string]bool
	// UsedSAT is true when the prefilter did not decide and the proof
	// came from the structural/SAT engine (a fully strashed miter may
	// still need zero solver calls).
	UsedSAT bool
	// Stats reports the structural work behind the verdict.
	Stats Stats
}

// Stats describes the structural-hashing layer's contribution to one
// check.
type Stats struct {
	// AIGNodes is the AND-node count of the shared strashed graph.
	AIGNodes int
	// StrashHits counts hash-cons table hits during graph construction
	// (cones of the second circuit collapsing onto the first).
	StrashHits int
	// SweepMerges counts node equivalences proven by the sweeper,
	// including complement merges.
	SweepMerges int
	// SATPairs counts observable pairs that needed a SAT call (pairs
	// proven by structural identity need none).
	SATPairs int
	// RewriteSaved is the AND-node reduction of the cut-rewriting pass
	// (AIGNodes already reflects the rewritten graph).
	RewriteSaved int
	// Rewrites counts nodes the rewriting pass replaced by a smaller
	// NPN-class structure.
	Rewrites int
	// ProblemClauses is the final problem-clause count of the miter
	// instance (0 when the whole proof was structural).
	ProblemClauses int
}

// Options tunes the checker.
type Options struct {
	// PrefilterPatterns is the number of random patterns simulated
	// before invoking SAT. 0 uses a default of 8192; negative disables
	// the prefilter.
	PrefilterPatterns int
	// Seed drives the prefilter stimulus.
	Seed uint64
	// PortfolioWorkers > 1 backs the check with a sat.Portfolio of
	// that many diverging solver instances, time-sliced in its
	// staircase schedule: verdicts, counterexamples and stats are
	// bit-identical on every host, and identical across member counts
	// for miters decided in the schedule's first rounds (the common
	// case). 0 or 1 builds a one-member portfolio, which answers
	// exactly like a single solver; the flow's Fig. 3 step uses that.
	// No measurement has shown a wider portfolio to pay: members run
	// one after another on the calling goroutine.
	PortfolioWorkers int
	// Deprecated: ignored; every portfolio is deterministic.
	PortfolioDeterministic bool
	// Stop, when non-nil and set, cancels the check — prefilter
	// simulation, sweeping, and miter solving all observe it — and
	// Check returns ErrCancelled. A check that completes before the
	// flag is observed returns its verdict unchanged, so results stay
	// bit-identical when a deadline never fires. Check never writes
	// the flag; the caller lowers it to check again.
	Stop *atomic.Bool
	// Solver, when non-nil, is the SAT backend for this check and
	// overrides the PortfolioWorkers construction. It must be fresh (no
	// variables or clauses): the check owns it for its duration. A
	// daemon injects a portfolio capped at its width limit here.
	Solver sat.Interface
}

// newMiterSolver returns the SAT backend for one check: a portfolio of
// opt.PortfolioWorkers members (one when <= 1) seeded from the checker
// seed.
func newMiterSolver(opt Options) sat.Interface {
	if opt.Solver != nil {
		return opt.Solver
	}
	return sat.NewPortfolio(sat.PortfolioOptions{
		Workers: opt.PortfolioWorkers,
		Seed:    opt.Seed,
		Stop:    opt.Stop,
	})
}

// unknownErr maps a solver Unknown to the right error: ErrCancelled
// when the caller's stop flag is up (a deadline or signal fired),
// otherwise an internal error — an unbudgeted solve must decide.
func unknownErr(opt Options) error {
	if opt.Stop != nil && opt.Stop.Load() {
		return ErrCancelled
	}
	return fmt.Errorf("lec: solver returned unknown")
}

// Check decides whether circuits a and b are functionally equivalent.
// Inputs and flip-flops are matched by name; output pairs by position.
func Check(a, b *netlist.Circuit, opt Options) (Result, error) {
	if len(a.Outputs()) != len(b.Outputs()) {
		return Result{}, fmt.Errorf("lec: output count mismatch %d vs %d", len(a.Outputs()), len(b.Outputs()))
	}
	patterns := opt.PrefilterPatterns
	if patterns == 0 {
		patterns = 8192
	}
	if patterns > 0 {
		eq, err := sim.EquivalentOpt(a, b, sim.CompareOptions{
			Patterns: patterns, Seed: opt.Seed, Stop: opt.Stop,
		})
		if err != nil {
			if opt.Stop != nil && opt.Stop.Load() {
				return Result{}, ErrCancelled
			}
			return Result{}, err
		}
		if !eq {
			return Result{Equivalent: false}, nil
		}
	}
	return checkAIG(a, b, opt)
}
