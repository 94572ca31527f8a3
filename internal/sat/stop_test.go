package sat

import (
	"sync/atomic"
	"testing"

	"repro/internal/faultpoint"
)

// TestStopDuringSubsumption: a stop flag raised while solve-entry
// subsumption is running must be observed within one subsumption step,
// not after the whole preprocessing pass, and the solver must stay
// reusable.
func TestStopDuringSubsumption(t *testing.T) {
	defer faultpoint.Reset()
	var stop atomic.Bool
	s := NewWithOptions(Options{Stop: &stop})
	pigeonhole8x7(s)

	hits := 0
	faultpoint.Set("sat.subsume", func() {
		hits++
		stop.Store(true)
	})
	if got := s.Solve(); got != Unknown {
		t.Fatalf("stopped solve returned %v, want Unknown", got)
	}
	if hits != 1 {
		t.Fatalf("subsumption ran %d more steps after the stop flag was set", hits-1)
	}
	if s.Stats.ElimVars != 0 {
		t.Fatalf("BVE eliminated %d variables after the stop flag was set", s.Stats.ElimVars)
	}

	faultpoint.Reset()
	stop.Store(false)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-solve after stop: %v, want Unsat", got)
	}
}

// TestStopDuringBVE: same bounded-latency contract for the variable
// elimination loop.
func TestStopDuringBVE(t *testing.T) {
	defer faultpoint.Reset()
	var stop atomic.Bool
	s := NewWithOptions(Options{Stop: &stop})
	pigeonhole8x7(s)

	hits := 0
	faultpoint.Set("sat.bve", func() {
		hits++
		stop.Store(true)
	})
	if got := s.Solve(); got != Unknown {
		t.Fatalf("stopped solve returned %v, want Unknown", got)
	}
	if hits > 1 {
		t.Fatalf("BVE visited %d more candidates after the stop flag was set", hits-1)
	}

	faultpoint.Reset()
	stop.Store(false)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-solve after stop: %v, want Unsat", got)
	}
}

// TestStopDuringVivify: the vivification candidate loop must break
// between clauses once the flag is up.
func TestStopDuringVivify(t *testing.T) {
	defer faultpoint.Reset()
	var stop atomic.Bool
	s := NewWithOptions(Options{Stop: &stop})
	// Implication ladder plus wide learnt clauses that vivification
	// would distill one by one.
	const n = 20
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(-vars[i], vars[i+1])
	}
	for i := 0; i+3 < n; i++ {
		s.attachClause([]uint32{intLit(-vars[i]), intLit(vars[i+1]), intLit(vars[i+3])}, true, 3)
	}
	s.lastViv = -(1 << 40)

	hits := 0
	faultpoint.Set("sat.vivify", func() {
		hits++
		stop.Store(true)
	})
	s.maybeVivify()
	if hits != 1 {
		t.Fatalf("vivification visited %d more candidates after the stop flag was set", hits-1)
	}
	stop.Store(false)
	if got := s.Solve(); got != Sat {
		t.Fatalf("solve after stopped vivify: %v", got)
	}
}

// TestStopFlagSolver: a raised Options.Stop cancels the solve, the
// solver never clears it, and lowering it re-enables the solver.
func TestStopFlagSolver(t *testing.T) {
	var stop atomic.Bool
	s := NewWithOptions(Options{Stop: &stop})
	pigeonhole8x7(s)
	stop.Store(true)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("solve under stop: %v, want Unknown", got)
	}
	if !stop.Load() {
		t.Fatal("solver cleared the stop flag")
	}
	stop.Store(false)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-solve: %v, want Unsat", got)
	}
}

// TestPortfolioStopFlag: a raised PortfolioOptions.Stop cancels every
// solve until the caller lowers it; the portfolio never clears it.
func TestPortfolioStopFlag(t *testing.T) {
	var ext atomic.Bool
	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 7, Stop: &ext})
	pigeonholeIface(p, 8, 7)
	ext.Store(true)
	if got := p.Solve(); got != Unknown {
		t.Fatalf("solve under stop: %v, want Unknown", got)
	}
	if !ext.Load() {
		t.Fatal("portfolio cleared the stop flag")
	}
	ext.Store(false)
	if got := p.Solve(); got != Unsat {
		t.Fatalf("re-solve: %v, want Unsat", got)
	}
}

// TestPortfolioReuseAfterMidSolveStop: the shared-pool contract. A
// portfolio whose Stop flag fired *mid-solve* (not between solves)
// must be reusable for the next job once the caller lowers the flag —
// mirroring the single-solver re-solve guarantee. The flag
// is raised from inside member preprocessing via a fault point, so the
// cancellation deterministically lands while search state (trail,
// learnts, pending simplification) is live.
func TestPortfolioReuseAfterMidSolveStop(t *testing.T) {
	defer faultpoint.Reset()
	var ext atomic.Bool
	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 7, Stop: &ext})
	pigeonholeIface(p, 8, 7)
	faultpoint.Set("sat.subsume", faultpoint.After(1, func() { ext.Store(true) }))
	if got := p.Solve(); got != Unknown {
		t.Fatalf("mid-solve stop returned %v, want Unknown", got)
	}
	if !ext.Load() {
		t.Fatal("portfolio cleared the stop flag")
	}
	faultpoint.Reset()
	ext.Store(false)
	if got := p.Solve(); got != Unsat {
		t.Fatalf("re-solve after mid-solve stop: %v, want Unsat", got)
	}
}

// TestPortfolioReuseAfterMidSolveStopSat: same contract on a satisfiable
// instance, with the re-solve's model checked against the constraints —
// a stale trail or poisoned learnt clause from the cancelled round would
// surface here as a bogus model.
func TestPortfolioReuseAfterMidSolveStopSat(t *testing.T) {
	defer faultpoint.Reset()
	const pigeons, holes = 8, 8
	var ext atomic.Bool
	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 11, Stop: &ext})
	v := make([][]int, pigeons)
	for i := range v {
		v[i] = make([]int, holes)
		for h := range v[i] {
			v[i][h] = p.NewVar()
		}
		p.AddClause(v[i]...)
	}
	for h := 0; h < holes; h++ {
		for a := 0; a < pigeons; a++ {
			for b := a + 1; b < pigeons; b++ {
				p.AddClause(-v[a][h], -v[b][h])
			}
		}
	}
	faultpoint.Set("sat.subsume", faultpoint.After(1, func() { ext.Store(true) }))
	if got := p.Solve(); got != Unknown {
		t.Fatalf("mid-solve stop returned %v, want Unknown", got)
	}
	faultpoint.Reset()
	ext.Store(false)
	if got := p.Solve(); got != Sat {
		t.Fatalf("re-solve after mid-solve stop: %v, want Sat", got)
	}
	for i := range v {
		placed := 0
		for h := range v[i] {
			if p.Value(v[i][h]) {
				placed++
			}
		}
		if placed == 0 {
			t.Fatalf("model leaves pigeon %d unplaced", i)
		}
	}
	for h := 0; h < holes; h++ {
		occupants := 0
		for i := 0; i < pigeons; i++ {
			if p.Value(v[i][h]) {
				occupants++
			}
		}
		if occupants > 1 {
			t.Fatalf("model puts %d pigeons in hole %d", occupants, h)
		}
	}
}

// pigeonhole8x7 adds an 8-pigeon/7-hole instance: large enough to arm
// solve-entry simplification (>= simpMinClauses problem clauses),
// unsatisfiable, and quick to decide.
func pigeonhole8x7(s *Solver) {
	pigeonhole(s, 8, 7)
}
