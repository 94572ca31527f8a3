package sat

import (
	"sync/atomic"
	"testing"
	"time"
)

// buildDet constructs a portfolio over one of the regression
// instances.
func buildDet(workers int, build func(Interface)) *Portfolio {
	p := NewPortfolio(PortfolioOptions{Workers: workers, Seed: 11})
	build(p)
	return p
}

// snapshot solves p and captures everything the determinism contract
// covers: status, winner, the full model, and both aggregate and
// per-member stats.
type detSnapshot struct {
	status  Status
	winner  int
	model   []bool
	agg     Stats
	winStat Stats
}

func solveSnapshot(p *Portfolio, assumptions ...int) detSnapshot {
	st := p.Solve(assumptions...)
	snap := detSnapshot{status: st, winner: p.Winner(), agg: p.Stats(), winStat: p.MemberStats(p.Winner())}
	if st == Sat {
		snap.model = make([]bool, p.NumVars())
		for v := 1; v <= p.NumVars(); v++ {
			snap.model[v-1] = p.Value(v)
		}
	}
	return snap
}

func (a detSnapshot) equal(b detSnapshot) bool {
	if a.status != b.status || a.winner != b.winner || a.agg != b.agg || a.winStat != b.winStat {
		return false
	}
	if len(a.model) != len(b.model) {
		return false
	}
	for i := range a.model {
		if a.model[i] != b.model[i] {
			return false
		}
	}
	return true
}

// TestDeterministicPortfolioRepeatable: the deterministic mode's core
// contract — two runs of the same configuration on the same instance
// are bit-identical in status, winner, model, and every stat, including
// on a multi-round UNSAT instance that several members search.
func TestDeterministicPortfolioRepeatable(t *testing.T) {
	builders := map[string]func(Interface){
		"unsat-multiround": func(s Interface) { unsat3SAT(s, 200, 2) },
		"sat-php":          func(s Interface) { pigeonholeIface(s, 8, 8) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			a := solveSnapshot(buildDet(3, build))
			b := solveSnapshot(buildDet(3, build))
			if !a.equal(b) {
				t.Fatalf("two identical deterministic runs differ:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestDeterministicPortfolioAcrossWorkers: the staircase schedule
// (member i joins in round i) makes results independent of the member
// count for every instance decided before the schedule reaches a
// member index that only the larger portfolio has. Both regression
// instances are decided by members 0/1 within the first rounds, so
// Workers 2, 3 and 4 must report the identical status, winner, model
// — and identical aggregate stats, because the extra members never
// execute a slice and the mirrored encoding enqueues nothing.
func TestDeterministicPortfolioAcrossWorkers(t *testing.T) {
	builders := map[string]func(Interface){
		"unsat-multiround": func(s Interface) { unsat3SAT(s, 200, 2) },
		"sat-php":          func(s Interface) { pigeonholeIface(s, 8, 8) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			base := solveSnapshot(buildDet(2, build))
			for _, workers := range []int{3, 4} {
				got := solveSnapshot(buildDet(workers, build))
				if !got.equal(base) {
					t.Fatalf("workers=%d deterministic result differs from workers=2:\n%+v\n%+v",
						workers, got, base)
				}
			}
		})
	}
}

// TestDeterministicSolveLimited: a budget that fits in the first slice
// is decided by member 0 alone (canonical bounded probe, exactly like
// the plain solver); an exhausted budget reports Unknown with the
// portfolio reusable.
func TestDeterministicSolveLimited(t *testing.T) {
	build := func(s Interface) { pigeonholeIface(s, 8, 7) }
	p := buildDet(3, build)
	ref := New()
	build(ref)

	if st, want := p.SolveLimited(50), ref.SolveLimited(50); st != want || st != Unknown {
		t.Fatalf("small budget: portfolio=%v plain=%v", st, want)
	}
	if p.Winner() != 0 {
		t.Fatalf("small-budget probe must be decided by member 0, got %d", p.Winner())
	}
	if m0, r := p.MemberStats(0), ref.Stats; m0 != r {
		t.Fatalf("bounded probe diverged from the plain solver:\n%+v\n%+v", m0, r)
	}
	// Unlimited re-solve still works and answers exactly.
	if st := p.Solve(); st != Unsat {
		t.Fatalf("re-solve after bounded probe: %v", st)
	}
}

// TestDeterministicInterrupt: the stop flag must end a deterministic
// solve between (or inside) slices, leaving the portfolio reusable
// once the flag is lowered.
func TestDeterministicInterrupt(t *testing.T) {
	var stop atomic.Bool
	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 11, Stop: &stop})
	pigeonholeIface(p, 10, 9)
	done := make(chan Status, 1)
	go func() { done <- p.Solve() }()
	time.Sleep(2 * time.Millisecond)
	stop.Store(true)
	select {
	case st := <-done:
		if st != Unknown && st != Unsat {
			t.Fatalf("stopped deterministic solve: %v", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deterministic stop not honored within 30s")
	}
	stop.Store(false)
	if st := p.SolveLimited(10); st != Unknown {
		t.Fatalf("budgeted re-solve after stop: %v", st)
	}
}

// pigeonholeIface is the pigeonhole builder over the shared Interface
// (the existing helper is *Solver-typed).
func pigeonholeIface(s Interface, pigeons, holes int) {
	v := make([][]int, pigeons)
	for i := range v {
		v[i] = make([]int, holes)
		for h := range v[i] {
			v[i][h] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		s.AddClause(v[i]...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(-v[p1][h], -v[p2][h])
			}
		}
	}
}

// unsat3SAT fills s with a fixed random 3-SAT instance at clause
// ratio 4.6 — just past the phase transition, so the chosen seeds are
// UNSAT with resolution proofs hard enough (thousands of conflicts) to
// outlive several portfolio slices.
func unsat3SAT(s Interface, numVars int, seed uint64) {
	rng := seed
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for v := 0; v < numVars; v++ {
		s.NewVar()
	}
	for cl := 0; cl < numVars*46/10; cl++ {
		lits := make([]int, 3)
		for j := range lits {
			v := 1 + next(numVars)
			if next(2) == 1 {
				v = -v
			}
			lits[j] = v
		}
		s.AddClause(lits...)
	}
}
