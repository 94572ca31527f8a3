package sat

import (
	"slices"
	"testing"
)

// forgetIncremental drops the bookkeeping that lets a simplify round
// skip unchanged work: every clause loses its clean bit and every
// variable is touched, so the next round rescans everything.
func (s *Solver) forgetIncremental() {
	end := cref(len(s.arena))
	for c := cref(0); c < end; c += claHdrWords + s.claSize(c) {
		s.arena[c] &^= claCleanFlag
	}
	for v := range s.touched {
		s.touched[v] = 1
	}
}

// incrementalScript decodes fuzz input into a sequence of solver
// operations over numVars variables. Clause batches mix fresh random
// clauses with supersets and one-literal-flipped copies of earlier ones,
// so subsumption, self-subsumption and elimination all have work. Every
// clause is satisfied by a planted assignment (odd variables true), so
// the instance stays satisfiable while it grows.
type incrementalScript struct {
	rng     uint64
	numVars int
	cnf     [][]int
}

// plant flips one literal of cl when the planted assignment falsifies
// all of them.
func (sc *incrementalScript) plant(cl []int) []int {
	for _, l := range cl {
		v := max(l, -l)
		if (l > 0) == (v%2 == 1) {
			return cl
		}
	}
	cl[sc.next()%uint64(len(cl))] *= -1
	return cl
}

func (sc *incrementalScript) next() uint64 {
	x := sc.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	sc.rng = x
	return x
}

func (sc *incrementalScript) lit() int {
	v := 1 + int(sc.next()%uint64(sc.numVars))
	if sc.next()&1 == 1 {
		return -v
	}
	return v
}

// clause returns a fresh clause: random, or derived from an earlier one.
func (sc *incrementalScript) clause() []int {
	if len(sc.cnf) > 0 && sc.next()%3 != 0 {
		base := sc.cnf[sc.next()%uint64(len(sc.cnf))]
		cl := append([]int(nil), base...)
		if sc.next()&1 == 0 {
			cl[sc.next()%uint64(len(cl))] *= -1 // self-subsumption bait
		} else {
			cl = append(cl, sc.lit()) // superset: subsumption bait
		}
		return sc.plant(cl)
	}
	n := 3 + int(sc.next()%4)
	cl := make([]int, n)
	for i := range cl {
		cl[i] = sc.lit()
	}
	return sc.plant(cl)
}

// sameInprocessing fails unless a and b hold the same clause arena
// (clean bits aside), the same counters (work counters aside), the same
// elimination stack and, after a Sat answer, the same model over every
// variable, extension included.
func sameInprocessing(t *testing.T, a, b *Solver, st Status, step int) {
	t.Helper()
	if len(a.arena) != len(b.arena) {
		t.Fatalf("step %d: arena %d words, full-scan arena %d", step, len(a.arena), len(b.arena))
	}
	for c := cref(0); c < cref(len(a.arena)); c += claHdrWords + a.claSize(c) {
		n := claHdrWords + a.claSize(c)
		if a.arena[c]&^claCleanFlag != b.arena[c]&^claCleanFlag || !slices.Equal(a.arena[c+1:c+n], b.arena[c+1:c+n]) {
			t.Fatalf("step %d: clause at %d differs: %v vs %v", step, c, a.arena[c:c+n], b.arena[c:c+n])
		}
	}
	sa, sb := a.Stats, b.Stats
	if sa.BVETries > sb.BVETries {
		t.Fatalf("step %d: %d elimination tries, full scan %d", step, sa.BVETries, sb.BVETries)
	}
	sa.SubsumeChecks, sb.SubsumeChecks = 0, 0
	sa.BVETries, sb.BVETries = 0, 0
	if sa != sb {
		t.Fatalf("step %d: stats differ:\n%+v\n%+v", step, sa, sb)
	}
	if !slices.Equal(a.elim, b.elim) || !slices.Equal(a.elimLits, b.elimLits) {
		t.Fatalf("step %d: elimination state differs", step)
	}
	for v := range a.elim {
		if a.elim[v] != 0 && a.elimAt[v] != b.elimAt[v] {
			t.Fatalf("step %d: var %d eliminated at %v vs %v", step, v+1, a.elimAt[v], b.elimAt[v])
		}
	}
	if st == Sat {
		for v := 1; v <= a.NumVars(); v++ {
			if a.Value(v) != b.Value(v) {
				t.Fatalf("step %d: Value(%d) differs", step, v)
			}
		}
	}
}

// runIncrementalScript drives a (incremental bookkeeping kept) and b
// (bookkeeping forgotten before every round, so each round is a full
// rescan) through the same operations and compares them after each.
func runIncrementalScript(t *testing.T, seed uint64, nv uint8, ops []byte) (a, b *Solver) {
	sc := &incrementalScript{rng: seed | 1, numVars: 6 + int(nv%40)}
	a, b = New(), New()
	for i := 0; i < sc.numVars; i++ {
		a.NewVar()
		b.NewVar()
	}
	add := func(cl []int) {
		a.AddClause(cl...)
		b.AddClause(cl...)
		sc.cnf = append(sc.cnf, cl)
	}
	if len(ops) > 24 {
		ops = ops[:24]
	}
	for step, op := range ops {
		st := Unknown
		switch op % 5 {
		case 0, 1: // a batch of clauses
			for k := 8 + 4*(int(op>>3)%32); k > 0; k-- {
				add(sc.clause())
			}
		case 2: // a forced simplify round, whatever the gates say
			for _, s := range []*Solver{a, b} {
				s.cancelUntil(0)
				if s == b {
					s.forgetIncremental()
				}
				if !s.unsat && s.propagate() < 0 {
					s.simplify()
				}
			}
		case 3: // a solve, possibly under assumptions (gated round inside)
			var as []int
			for k := int(op>>3) % 3; k > 0; k-- {
				as = append(as, sc.lit())
			}
			b.forgetIncremental()
			st = a.Solve(as...)
			if got := b.Solve(as...); got != st {
				t.Fatalf("step %d: status %v, full scan %v", step, st, got)
			}
			if st == Sat {
				verifyModel(t, a, sc.cnf, step)
			}
		case 4: // a new variable and a short clause over it
			a.NewVar()
			b.NewVar()
			sc.numVars++
			add([]int{sc.numVars, sc.lit()})
		}
		sameInprocessing(t, a, b, st, step)
	}
	return a, b
}

// FuzzIncrementalSimplify holds the incremental inprocessing bookkeeping
// — clean bits, dirty occurrence lists, the touched-variable set and
// on-demand model extension — to a full rescan: one solver keeps it,
// the other forgets it before every simplify round, and after every
// operation the two must agree on every arena word but the clean bit,
// every counter but the work counters, the elimination stack and the
// value of every variable. Run with
// `go test -fuzz FuzzIncrementalSimplify ./internal/sat`.
func FuzzIncrementalSimplify(f *testing.F) {
	f.Add(uint64(1), uint8(20), []byte{0, 8, 2, 0, 3, 2, 16, 3, 2, 4, 0, 2, 11, 2})
	f.Add(uint64(7), uint8(3), []byte{1, 2, 9, 2, 4, 4, 2, 3, 24, 2, 3})
	f.Add(uint64(0xdead), uint8(35), []byte{0, 0, 2, 0, 2, 0, 2, 3, 0, 2, 19, 3, 2})
	f.Fuzz(func(t *testing.T, seed uint64, nv uint8, ops []byte) {
		runIncrementalScript(t, seed, nv, ops)
	})
}

// TestIncrementalSimplifySkipsWork pins that the bookkeeping is used: on
// a run of growing rounds the incremental solver scans fewer candidate
// clauses and tries fewer eliminations than the full rescan, and
// answers the same.
func TestIncrementalSimplifySkipsWork(t *testing.T) {
	ops := []byte{250, 250, 2, 3, 200, 2, 3, 120, 2, 3, 200, 2, 3}
	a, b := runIncrementalScript(t, 12345, 34, ops)
	if a.Stats.SubsumeChecks >= b.Stats.SubsumeChecks || a.Stats.BVETries >= b.Stats.BVETries {
		t.Fatalf("incremental: %d subsume checks, %d BVE tries; full rescan: %d, %d",
			a.Stats.SubsumeChecks, a.Stats.BVETries, b.Stats.SubsumeChecks, b.Stats.BVETries)
	}
}

// TestCleanNeedsCompleteScan pins the coverage rule of the clean bit: a
// subsumer whose occurrence lists were too long to scan in one round
// must stay dirty, so the next round — once the lists have shrunk —
// still finds the clause it subsumes or strengthens. Filler clauses
// over a, b (or ¬a) and a satisfier z make the lists longer than
// subMaxOcc; a later unit on z satisfies the filler away.
func TestCleanNeedsCompleteScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flip  bool // the filler sits on ¬a: the self-subsumption list
		count func(Stats) int64
	}{
		{"subsume", false, func(st Stats) int64 { return st.Subsumed }},
		{"strengthen", true, func(st Stats) int64 { return st.Strengthened }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			a, b, c, z := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
			fa := a
			if tc.flip {
				fa = -a
			}
			for k := 0; k <= subMaxOcc; k++ {
				f := s.NewVar()
				s.AddClause(fa, z, f)
				if !tc.flip {
					s.AddClause(b, z, -f)
				}
			}
			s.AddClause(a, b) // C
			if tc.flip {
				s.AddClause(-a, b, c) // D: C strengthens it to b ∨ c
			} else {
				s.AddClause(a, b, c) // D: C subsumes it
			}
			for v := range s.frozen {
				s.frozen[v] = 1 // no elimination: subsumption only
			}
			s.simplify()
			if got := tc.count(s.Stats); got != 0 {
				t.Fatalf("round 1 acted on D through an over-long list (%d)", got)
			}
			s.AddClause(z) // satisfies every filler clause
			s.simplify()
			if got := tc.count(s.Stats); got != 1 {
				t.Fatalf("round 2 acted %d times on D, want once", got)
			}
		})
	}
}
