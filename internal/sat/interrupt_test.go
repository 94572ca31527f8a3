package sat

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestInterruptReturnsUnknown raises the stop flag of a hard solve
// from another goroutine and checks the contract: the result is
// Unknown (or Unsat if the solver won the race), and once the flag is
// lowered the solver is reusable.
func TestInterruptReturnsUnknown(t *testing.T) {
	var stop atomic.Bool
	s := NewWithOptions(Options{Stop: &stop})
	pigeonhole(s, 10, 9) // far beyond the test-time budget of one solve
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(5 * time.Millisecond)
	stop.Store(true)
	select {
	case st := <-done:
		if st != Unknown && st != Unsat {
			t.Fatalf("stopped solve: got %v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stop not honored within 10s")
	}
	// Stopped solver must be reusable: a fresh easy sub-problem
	// decides instantly and correctly.
	stop.Store(false)
	a := s.NewVar()
	s.AddClause(a)
	if st := s.Solve(-a); st != Unsat {
		t.Fatalf("re-solve under contradicting assumption: %v", st)
	}
}

// TestInterruptedResolveMatchesFresh: a solver stopped mid-solve,
// re-solved after the flag is lowered, must return the same answer
// (and satisfy the same clauses) as a fresh solver on the same
// instance. Exercised on both a SAT and an UNSAT instance, for Solve
// and for SolveLimited.
func TestInterruptedResolveMatchesFresh(t *testing.T) {
	build := []struct {
		name string
		add  func(s *Solver)
		want Status
	}{
		{"unsat/php", func(s *Solver) { pigeonhole(s, 8, 7) }, Unsat},
		{"sat/php", func(s *Solver) { pigeonhole(s, 7, 7) }, Sat},
	}
	for _, tc := range build {
		t.Run(tc.name, func(t *testing.T) {
			for _, limited := range []bool{false, true} {
				var stop atomic.Bool
				s := NewWithOptions(Options{Stop: &stop})
				tc.add(s)
				raised := make(chan struct{})
				go func() {
					time.Sleep(time.Millisecond)
					stop.Store(true)
					close(raised)
				}()
				var st Status
				if limited {
					st = s.SolveLimited(1 << 40)
				} else {
					st = s.Solve()
				}
				<-raised // lower the flag only after it went up
				stop.Store(false)
				if st == Sat && tc.want == Unsat || st == Unsat && tc.want == Sat {
					t.Fatalf("limited=%v: stopped solve returned wrong definitive answer %v", limited, st)
				}
				if got := s.Solve(); got != tc.want {
					t.Fatalf("limited=%v: re-solve after stop: got %v, fresh solver gets %v", limited, got, tc.want)
				}
			}
		})
	}
}

// TestSolveLimitedRespectsStop covers the external cancellation flag on
// the budgeted entry point: a pre-set Options.Stop makes SolveLimited
// return Unknown before doing real work, clearing the flag re-enables
// the solver, and the answer then matches a fresh run.
func TestSolveLimitedRespectsStop(t *testing.T) {
	var stop atomic.Bool
	s := NewWithOptions(Options{Stop: &stop})
	pigeonhole(s, 8, 7)
	stop.Store(true)
	if st := s.SolveLimited(1 << 40); st != Unknown {
		t.Fatalf("stopped SolveLimited: got %v, want Unknown", st)
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("stopped Solve: got %v, want Unknown", st)
	}
	stop.Store(false)
	if st := s.SolveLimited(1 << 40); st != Unsat {
		t.Fatalf("after clearing stop: got %v, want Unsat", st)
	}
}
