package sat

import (
	"sync/atomic"
	"testing"
	"time"
)

// cnfFromBytes decodes fuzz input into a small CNF (and a stop-flag
// delay) so the whole instance stays brute-forceable: the first byte
// sets the variable count (2..13) and the delay, each following pair of
// bytes becomes one literal, and a zero byte ends the current clause.
func cnfFromBytes(data []byte) (numVars int, cnf [][]int, delay time.Duration) {
	if len(data) == 0 {
		return 2, nil, 0
	}
	numVars = 2 + int(data[0]%12)
	delay = time.Duration(data[0]>>4) * 5 * time.Microsecond
	var cl []int
	for i := 1; i+1 < len(data) && len(cnf) < 48; i += 2 {
		if data[i] == 0 {
			if len(cl) > 0 {
				cnf = append(cnf, cl)
				cl = nil
			}
			continue
		}
		v := 1 + int(data[i])%numVars
		if data[i+1]&1 == 1 {
			v = -v
		}
		cl = append(cl, v)
		if len(cl) >= 5 {
			cnf = append(cnf, cl)
			cl = nil
		}
	}
	if len(cl) > 0 {
		cnf = append(cnf, cl)
	}
	return numVars, cnf, delay
}

// FuzzSolverInterrupt races the stop flag against a solve on a random
// small instance and asserts the cancellation contract: no panics, the
// stopped status is one of {Sat, Unsat, Unknown} and consistent with
// brute force when definitive, and a re-solve of the same solver after
// the flag is lowered agrees exactly with brute force (including the
// model). Run with `go test -fuzz FuzzSolverInterrupt ./internal/sat`.
func FuzzSolverInterrupt(f *testing.F) {
	f.Add([]byte{7, 1, 0, 2, 1, 0, 3, 0, 1, 1, 2, 0})
	f.Add([]byte{0xff, 9, 1, 9, 0, 8, 1, 8, 0, 7, 1, 7, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0x35, 1, 0, 1, 1, 2, 0, 2, 1, 3, 0, 3, 1, 4, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		numVars, cnf, delay := cnfFromBytes(data)
		var stop atomic.Bool
		s := NewWithOptions(Options{Stop: &stop})
		for i := 0; i < numVars; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		want := brute(numVars, cnf)

		done := make(chan Status, 1)
		go func() { done <- s.Solve() }()
		if delay > 0 {
			time.Sleep(delay)
		}
		stop.Store(true)
		st := <-done
		stop.Store(false)
		switch st {
		case Sat:
			if !want {
				t.Fatalf("stopped solve returned Sat on UNSAT cnf %v", cnf)
			}
			verifyModel(t, s, cnf, 0)
		case Unsat:
			if want {
				t.Fatalf("stopped solve returned Unsat on SAT cnf %v", cnf)
			}
		case Unknown:
			// Always admissible for a stopped call.
		default:
			t.Fatalf("stopped solve returned invalid status %d", int(st))
		}

		// The solver must be fully reusable after the stop: the re-solve
		// under the lowered flag decides exactly like a fresh solver.
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("re-solve after stop: solver=%v brute=%v cnf=%v", got, want, cnf)
		}
		if got == Sat {
			verifyModel(t, s, cnf, 0)
		}
	})
}

// remapCNF folds the literals of cnf into 1..numVars so a second decode
// pass over shifted fuzz bytes yields clauses over the same variables.
func remapCNF(cnf [][]int, numVars int) [][]int {
	out := make([][]int, 0, len(cnf))
	for _, cl := range cnf {
		ncl := make([]int, len(cl))
		for i, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			v = (v-1)%numVars + 1
			if l < 0 {
				v = -v
			}
			ncl[i] = v
		}
		out = append(out, ncl)
	}
	return out
}

// FuzzInprocessDifferential drives the inprocessing passes —
// subsumption, self-subsumption, bounded variable elimination and
// learnt-clause vivification — directly on fuzzer-chosen instances and
// cross-checks every verdict and model against brute force, including
// solves under assumptions (which freeze and reintroduce eliminated
// variables), incremental clause addition over eliminated variables,
// and eliminated-variable model extension through Value.
func FuzzInprocessDifferential(f *testing.F) {
	f.Add([]byte{7, 1, 0, 2, 1, 0, 3, 0, 1, 1, 2, 0})
	f.Add([]byte{0xff, 9, 1, 9, 0, 8, 1, 8, 0, 7, 1, 7, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0x35, 1, 0, 1, 1, 2, 0, 2, 1, 3, 0, 3, 1, 4, 0, 4, 1})
	f.Add([]byte{11, 5, 0, 6, 1, 5, 0, 2, 0, 9, 1, 2, 1, 3, 0, 4, 0, 5, 1, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		numVars, cnf, _ := cnfFromBytes(data)
		s := New()
		for i := 0; i < numVars; i++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		// Force a full simplification round regardless of the size and
		// growth gates, then check the verdict and the extended model.
		if !s.unsat && s.propagate() < 0 {
			s.simplify()
		}
		want := brute(numVars, cnf)
		if got := s.Solve(); (got == Sat) != want {
			t.Fatalf("after simplify: solver=%v brute=%v cnf=%v", got, want, cnf)
		} else if got == Sat {
			verifyModel(t, s, cnf, 0) // Value must extend over eliminated vars
		}

		// Assumptions touch every variable, so frozen/reintroduce paths
		// fire for anything BVE removed.
		for v := 1; v <= numVars; v++ {
			for _, a := range []int{v, -v} {
				got := s.Solve(a)
				if wantA := bruteAssume(numVars, cnf, []int{a}); (got == Sat) != wantA {
					t.Fatalf("assumption %d: solver=%v brute=%v cnf=%v", a, got, wantA, cnf)
				}
				if got == Sat {
					verifyModel(t, s, cnf, 0)
					if s.Value(v) != (a > 0) {
						t.Fatalf("assumption %d not honored in model", a)
					}
				}
			}
		}

		// Force a vivification pass over whatever was learnt and
		// re-check (the schedule gate is bypassed, the level gate not).
		s.cancelUntil(0)
		s.lastViv = -(1 << 40)
		s.maybeVivify()
		if got := s.Solve(); (got == Sat) != want {
			t.Fatalf("after vivify: solver=%v brute=%v cnf=%v", got, want, cnf)
		} else if got == Sat {
			verifyModel(t, s, cnf, 0)
		}

		// Incremental clause addition over the same variables: clauses
		// mentioning eliminated variables must reintroduce them.
		if len(data) > 3 {
			_, cnf2, _ := cnfFromBytes(data[3:])
			cnf2 = remapCNF(cnf2, numVars)
			for _, cl := range cnf2 {
				s.AddClause(cl...)
				cnf = append(cnf, cl)
			}
			want = brute(numVars, cnf)
			if !s.unsat && s.propagate() < 0 {
				s.simplify() // second round on the grown instance
			}
			if got := s.Solve(); (got == Sat) != want {
				t.Fatalf("after growth: solver=%v brute=%v cnf=%v", got, want, cnf)
			} else if got == Sat {
				verifyModel(t, s, cnf, 0)
			}
		}
	})
}
