package sat

import "testing"

// TestBVEModelExtension eliminates a chain variable and checks that
// Value answers for it from the extended model, that the removed
// clauses are satisfied, and that a later clause over the eliminated
// variable reintroduces it correctly.
func TestBVEModelExtension(t *testing.T) {
	s := New()
	x, v, y, z := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(x, v)  // ¬x → v
	s.AddClause(-v, y) // v → y
	s.AddClause(z, y)  // keep z live
	s.simplify()
	if s.elim[v-1] == 0 {
		t.Fatal("v (2 occurrences, 1 resolvent) was not eliminated")
	}
	if got := s.Solve(-x); got != Sat {
		t.Fatalf("solve under ¬x: %v", got)
	}
	// ¬x forces v (removed clause x∨v), which forces y.
	if !s.Value(v) {
		t.Error("extended model violates removed clause x ∨ v")
	}
	if !s.Value(y) {
		t.Error("model violates removed clause ¬v ∨ y")
	}
	// A new clause over v must bring it back as a real variable.
	s.AddClause(-v, z)
	if s.elim[v-1] != 0 {
		t.Fatal("mentioning v in AddClause did not reintroduce it")
	}
	if got := s.Solve(-x); got != Sat {
		t.Fatalf("re-solve under ¬x: %v", got)
	}
	if !s.Value(v) || !s.Value(y) || !s.Value(z) {
		t.Error("model after reintroduction violates v→z chain")
	}
}

// TestBVEAssumptionReintroduce: assuming an eliminated variable must
// restore its clauses before the assumption is applied, and freeze it
// against future elimination.
func TestBVEAssumptionReintroduce(t *testing.T) {
	s := New()
	x, v, y := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(x, v)
	s.AddClause(-v, y)
	s.simplify()
	if s.elim[v-1] == 0 {
		t.Fatal("v was not eliminated")
	}
	if got := s.Solve(v, -y); got != Unsat {
		t.Fatalf("v ∧ ¬y with v→y: %v", got)
	}
	if s.elim[v-1] != 0 {
		t.Fatal("assuming v did not reintroduce it")
	}
	if s.frozen[v-1] == 0 {
		t.Fatal("assumed variable not frozen")
	}
	s.simplify()
	if s.elim[v-1] != 0 {
		t.Fatal("frozen variable was eliminated again")
	}
	if got := s.Solve(v); got != Sat {
		t.Fatalf("assumption v: %v", got)
	}
	if !s.Value(y) {
		t.Error("v → y not propagated after reintroduction")
	}
	_ = x
}

// TestSubsumptionRemovesSupersets: a two-literal clause must delete a
// superset clause and strengthen a clause containing one flipped
// literal (self-subsumption).
func TestSubsumptionRemovesSupersets(t *testing.T) {
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(a, b)
	s.AddClause(a, b, c)     // subsumed by (a ∨ b)
	s.AddClause(-a, b, d)    // self-subsumed to (b ∨ d) by (a ∨ b)... on a
	s.AddClause(c, d, -b, a) // stays (contains ¬b)
	before := s.NumProblemClauses()
	s.simplify()
	if s.Stats.Subsumed == 0 {
		t.Error("superset clause not subsumed")
	}
	if s.Stats.Strengthened == 0 {
		t.Error("flipped-literal clause not strengthened")
	}
	if s.NumProblemClauses() >= before {
		t.Errorf("problem clauses did not shrink: %d -> %d", before, s.NumProblemClauses())
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("instance satisfiable: %v", got)
	}
	verifyModel(t, s, [][]int{{a, b}, {a, b, c}, {-a, b, d}, {c, d, -b, a}}, 0)
}

// TestSimplifyDeterminism: two identical solvers simplify identically —
// same eliminations, same clause counts, same stats.
func TestSimplifyDeterminism(t *testing.T) {
	build := func() *Solver {
		s := New()
		pigeonhole(s, 6, 5)
		s.simplify()
		return s
	}
	a, b := build(), build()
	if a.numProblem != b.numProblem || a.numElim != b.numElim {
		t.Fatalf("simplify diverged: %d/%d clauses, %d/%d eliminated",
			a.numProblem, b.numProblem, a.numElim, b.numElim)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	ra, rb := a.Solve(), b.Solve()
	if ra != rb || ra != Unsat {
		t.Fatalf("pigeonhole after simplify: %v vs %v", ra, rb)
	}
}
