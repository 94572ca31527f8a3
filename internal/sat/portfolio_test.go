package sat

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestOptionsSeededDeterministic: two solvers with the same non-default
// Options and the same call sequence must produce bit-identical runs —
// statuses, models, and work counters. This is the reproducibility
// contract portfolio members rely on.
func TestOptionsSeededDeterministic(t *testing.T) {
	for _, opt := range []Options{
		{Seed: 0xdead, Polarity: PolaritySaved, LubyUnit: 64},
		{Seed: 0xbeef, Polarity: PolarityRandom, LubyUnit: 32},
	} {
		build := func() *Solver {
			s := NewWithOptions(opt)
			pigeonhole(s, 6, 6)
			return s
		}
		a, b := build(), build()
		if ra, rb := a.Solve(), b.Solve(); ra != rb {
			t.Fatalf("opt %+v: statuses differ: %v vs %v", opt, ra, rb)
		}
		for v := 1; v <= a.NumVars(); v++ {
			if a.Value(v) != b.Value(v) {
				t.Fatalf("opt %+v: model differs at var %d", opt, v)
			}
		}
		if a.Stats != b.Stats {
			t.Fatalf("opt %+v: stats differ:\n%+v\n%+v", opt, a.Stats, b.Stats)
		}
	}
}

// TestOptionsSeedsDiverge: different seeds must actually change the
// search (otherwise the portfolio runs N copies of the same run).
func TestOptionsSeedsDiverge(t *testing.T) {
	run := func(opt Options) int64 {
		s := NewWithOptions(opt)
		pigeonhole(s, 8, 7)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(8,7) under %+v: %v", opt, st)
		}
		return s.Stats.Conflicts
	}
	base := run(Options{})
	diverged := false
	for seed := uint64(1); seed <= 3; seed++ {
		if run(Options{Seed: seed, Polarity: PolarityRandom}) != base {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("three random-seeded runs all matched the deterministic conflict count")
	}
}

// TestPortfolioStatuses drives portfolios of 1, 2 and 4 members through
// SAT and UNSAT instances, including incremental re-solves, assumptions
// and model extraction, and checks each answer against the plain
// solver.
func TestPortfolioStatuses(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPortfolio(PortfolioOptions{Workers: workers, Seed: 7})
		if p.Workers() != workers {
			t.Fatalf("workers: got %d want %d", p.Workers(), workers)
		}
		a, b := p.NewVar(), p.NewVar()
		p.AddClause(a, b)
		p.AddClause(-a, b)
		if st := p.Solve(); st != Sat {
			t.Fatalf("w=%d: a∨b ∧ ¬a∨b: %v", workers, st)
		}
		if !p.Value(b) {
			t.Fatalf("w=%d: model must set b", workers)
		}
		if st := p.Solve(-b); st != Unsat {
			t.Fatalf("w=%d: assumption ¬b: %v", workers, st)
		}
		// Instance unchanged by the assumption solve.
		if st := p.Solve(); st != Sat {
			t.Fatalf("w=%d: re-solve: %v", workers, st)
		}
		p.AddClause(-b)
		if st := p.Solve(); st != Unsat {
			t.Fatalf("w=%d: after adding ¬b: %v", workers, st)
		}
	}
}

// TestPortfolioHardInstances runs four members on instances hard enough
// to outlive the first scheduling slices, in both directions (SAT and
// UNSAT).
func TestPortfolioHardInstances(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pigeons int
		holes   int
		want    Status
	}{
		{"unsat", 8, 7, Unsat},
		{"sat", 8, 8, Sat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPortfolio(PortfolioOptions{Workers: 4, Seed: 99})
			pigeonholeIface(p, tc.pigeons, tc.holes)
			if st := p.Solve(); st != tc.want {
				t.Fatalf("PHP(%d,%d): got %v want %v", tc.pigeons, tc.holes, st, tc.want)
			}
			if tc.want == Sat {
				// The winning member's model must place every pigeon
				// (variables are allocated row-major by the builder).
				for i := 0; i < tc.pigeons; i++ {
					placed := false
					for h := 0; h < tc.holes; h++ {
						if p.Value(1 + i*tc.holes + h) {
							placed = true
						}
					}
					if !placed {
						t.Fatalf("model leaves pigeon %d unplaced", i)
					}
				}
			}
		})
	}
}

// TestPortfolioMembersIndependent: members share nothing, so each
// member's work counters after a staircase solve equal those of a
// standalone solver with the member's configuration that is given the
// same clauses and the same SolveLimited slices — replayed here in the
// schedule's (round, member) order. The instance is decided in round
// 2, so member 0 resumes after member 1 has run a slice of its own.
func TestPortfolioMembersIndependent(t *testing.T) {
	const workers, seed = 4, 99
	build := func(s Interface) { unsat3SAT(s, 200, 2) }
	p := NewPortfolio(PortfolioOptions{Workers: workers, Seed: seed})
	build(p)
	got := p.Solve()

	solo := make([]*Solver, workers)
	for i := range solo {
		solo[i] = NewWithOptions(MemberOptions(i, seed))
		build(solo[i])
	}
	want, winner, round := Unknown, 0, -1
	for want == Unknown {
		round++
		for i := 0; i < min(round+1, workers) && want == Unknown; i++ {
			want, winner = solo[i].SolveLimited(int64(sliceUnit)<<round), i
		}
	}
	if round < 2 {
		t.Fatalf("decided in round %d; the check needs round 2 or later", round)
	}
	if got != want || p.Winner() != winner {
		t.Fatalf("portfolio %v by member %d, standalone replay %v by member %d", got, p.Winner(), want, winner)
	}
	for i := range solo {
		if p.MemberStats(i) != solo[i].Stats {
			t.Errorf("member %d differs from its standalone replay:\n%+v\n%+v", i, p.MemberStats(i), solo[i].Stats)
		}
	}
}

// TestPortfolioSolveLimited: with a tiny budget every member returns
// Unknown; the portfolio must report Unknown and stay reusable.
func TestPortfolioSolveLimited(t *testing.T) {
	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 5})
	pigeonholeIface(p, 9, 8)
	if st := p.SolveLimited(1); st != Unknown {
		t.Fatalf("budget 1 on PHP(9,8): %v", st)
	}
	if st := p.SolveLimited(-1); st != Unsat {
		t.Fatalf("unlimited re-solve: %v", st)
	}
}

// TestPortfolioInterrupt: raising the stop flag of an in-flight
// portfolio solve must stop every member — including any member the
// flag beat to its solve entry — and leave the portfolio reusable once
// the flag is lowered.
func TestPortfolioInterrupt(t *testing.T) {
	var stop atomic.Bool
	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 1, Stop: &stop})
	pigeonholeIface(p, 10, 9)
	done := make(chan Status, 1)
	go func() { done <- p.Solve() }()
	time.Sleep(2 * time.Millisecond)
	stop.Store(true)
	select {
	case st := <-done:
		if st != Unknown && st != Unsat {
			t.Fatalf("stopped portfolio solve: %v", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("portfolio stop not honored within 30s (PHP(10,9) would run far longer)")
	}
	// Reusable afterwards: a bounded re-solve runs normally.
	stop.Store(false)
	if st := p.SolveLimited(10); st != Unknown {
		t.Fatalf("budgeted re-solve on PHP(10,9): %v", st)
	}
}

// TestPortfolioFuzzAgainstBruteForce cross-checks a 2-worker portfolio
// against exhaustive enumeration on random small CNFs, mirroring the
// single-solver fuzz suite: statuses must match brute force and every
// Sat model must satisfy the instance, across incremental adds and
// assumption rounds.
func TestPortfolioFuzzAgainstBruteForce(t *testing.T) {
	rng := uint64(0x51ce950)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		numVars := 5 + next(16) // 5..20
		numClauses := 2 + next(4*numVars)
		cnf := make([][]int, 0, numClauses)
		for i := 0; i < numClauses; i++ {
			w := 1 + next(5)
			cl := make([]int, w)
			for j := range cl {
				v := 1 + next(numVars)
				if next(2) == 1 {
					v = -v
				}
				cl[j] = v
			}
			cnf = append(cnf, cl)
		}
		p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: uint64(trial)})
		for i := 0; i < numVars; i++ {
			p.NewVar()
		}
		split := next(len(cnf) + 1)
		for _, cl := range cnf[:split] {
			p.AddClause(cl...)
		}
		p.Solve()
		for _, cl := range cnf[split:] {
			p.AddClause(cl...)
		}
		got := p.Solve()
		want := brute(numVars, cnf)
		if (got == Sat) != want {
			t.Fatalf("trial %d: portfolio=%v brute=%v cnf=%v", trial, got, want, cnf)
		}
		if got == Sat {
			verifyPortfolioModel(t, p, cnf, trial)
		}
		for round := 0; round < 2; round++ {
			na := 1 + next(4)
			assume := make([]int, 0, na)
			seen := map[int]bool{}
			for len(assume) < na {
				v := 1 + next(numVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if next(2) == 1 {
					v = -v
				}
				assume = append(assume, v)
			}
			got := p.Solve(assume...)
			want := bruteAssume(numVars, cnf, assume)
			if (got == Sat) != want {
				t.Fatalf("trial %d assume %v: portfolio=%v brute=%v cnf=%v", trial, assume, got, want, cnf)
			}
			if got == Sat {
				verifyPortfolioModel(t, p, cnf, trial)
				for _, a := range assume {
					v := a
					if v < 0 {
						v = -v
					}
					if p.Value(v) != (a > 0) {
						t.Fatalf("trial %d: assumption %d not honored", trial, a)
					}
				}
			}
		}
	}
}

func verifyPortfolioModel(t *testing.T, p *Portfolio, cnf [][]int, trial int) {
	t.Helper()
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			if (l > 0) == p.Value(v) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("trial %d: portfolio model does not satisfy clause %v", trial, cl)
		}
	}
}

// TestSingleMemberPortfolioMatchesSolver pins the equivalence the
// callers rely on when they always build a Portfolio: with one member
// it answers exactly like a plain Solver on the same stop flag —
// status, full model, Stats and clause counts — across incremental
// adds, assumption rounds, a SolveLimited round and a solve under a
// raised flag, on random small CNFs checked against brute force.
func TestSingleMemberPortfolioMatchesSolver(t *testing.T) {
	rng := uint64(0x1badcafe)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		// Random 3-SAT near the satisfiability threshold (clause/var
		// ratio ~4.3), so solves hit conflicts and small budgets run out.
		numVars := 8 + next(9) // 8..16
		numClauses := 4*numVars + next(numVars/2+1)
		cnf := make([][]int, 0, numClauses)
		for i := 0; i < numClauses; i++ {
			cl := make([]int, 3)
			for j := range cl {
				cl[j] = 1 + next(numVars)
				if next(2) == 1 {
					cl[j] = -cl[j]
				}
			}
			cnf = append(cnf, cl)
		}
		randAssume := func() []int {
			var assume []int
			seen := map[int]bool{}
			for n := 1 + next(4); len(assume) < n; {
				v := 1 + next(numVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if next(2) == 1 {
					v = -v
				}
				assume = append(assume, v)
			}
			return assume
		}

		var stop atomic.Bool
		p := NewPortfolio(PortfolioOptions{Workers: 1, Stop: &stop})
		s := NewWithOptions(Options{Stop: &stop})
		for i := 0; i < numVars; i++ {
			if pv, sv := p.NewVar(), s.NewVar(); pv != sv {
				t.Fatalf("trial %d: NewVar portfolio=%d solver=%d", trial, pv, sv)
			}
		}
		added := 0
		add := func(n int) {
			for _, cl := range cnf[added : added+n] {
				p.AddClause(cl...)
				s.AddClause(cl...)
			}
			added += n
		}
		same := func(step string, ps, ss Status) {
			t.Helper()
			if ps != ss {
				t.Fatalf("trial %d %s: status portfolio=%v solver=%v", trial, step, ps, ss)
			}
			if ps == Sat {
				for v := 1; v <= numVars; v++ {
					if p.Value(v) != s.Value(v) {
						t.Fatalf("trial %d %s: model differs at var %d", trial, step, v)
					}
				}
			}
			if p.Stats() != s.Stats {
				t.Fatalf("trial %d %s: stats differ:\n%+v\n%+v", trial, step, p.Stats(), s.Stats)
			}
			if p.NumClauses() != s.NumClauses() || p.NumProblemClauses() != s.NumProblemClauses() {
				t.Fatalf("trial %d %s: clauses portfolio=%d/%d solver=%d/%d", trial, step,
					p.NumClauses(), p.NumProblemClauses(), s.NumClauses(), s.NumProblemClauses())
			}
		}

		add(next(len(cnf) + 1))
		same("first", p.Solve(), s.Solve())
		add(len(cnf) - added)
		st := p.Solve()
		same("full", st, s.Solve())
		if (st == Sat) != brute(numVars, cnf) {
			t.Fatalf("trial %d: %v disagrees with brute force on cnf %v", trial, st, cnf)
		}
		for round := 0; round < 2; round++ {
			assume := randAssume()
			st := p.Solve(assume...)
			same(fmt.Sprintf("assume %v", assume), st, s.Solve(assume...))
			if (st == Sat) != bruteAssume(numVars, cnf, assume) {
				t.Fatalf("trial %d assume %v: %v disagrees with brute force", trial, assume, st)
			}
		}
		assume := randAssume()
		budget := int64(next(2))
		same(fmt.Sprintf("limited %d %v", budget, assume), p.SolveLimited(budget, assume...), s.SolveLimited(budget, assume...))

		stop.Store(true)
		st = p.Solve()
		same("stopped", st, s.Solve())
		if st != Unknown {
			t.Fatalf("trial %d: solve under a raised flag returned %v", trial, st)
		}
		stop.Store(false)
		same("after stop", p.Solve(), s.Solve())
	}
}
