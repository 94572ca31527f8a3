package sat

import (
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

// TestPortfolioInterrupt: interrupting an in-flight portfolio solve
// must stop every member through the shared stop flag — including any
// member the interrupt beat to its solve entry — and leave the
// portfolio reusable. The request must not be lost even though the
// members' own interrupt flags are reset at solve entry.
func TestPortfolioInterrupt(t *testing.T) {
	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 1})
	pigeonholeIface(p, 10, 9)
	done := make(chan Status, 1)
	go func() { done <- p.Solve() }()
	time.Sleep(2 * time.Millisecond)
	p.Interrupt()
	select {
	case st := <-done:
		if st != Unknown && st != Unsat {
			t.Fatalf("interrupted portfolio solve: %v", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("portfolio interrupt not honored within 30s (PHP(10,9) would run far longer)")
	}
	// Reusable afterwards: a bounded re-solve runs normally.
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
