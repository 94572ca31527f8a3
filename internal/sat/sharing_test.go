package sat

import "testing"

// ringClause builds the self-validating payload of clause k: the
// literal values are a pure function of k, so a reader can verify that
// the clause it accepted as index k carries exactly clause k's payload.
func ringClause(k uint64) []uint32 {
	n := 1 + int(k%uint64(shareMaxLits))
	lits := make([]uint32, n)
	for i := range lits {
		lits[i] = uint32(k*31+uint64(i)*7) | 1<<20
	}
	return lits
}

// checkClause fails unless got/lbd is clause k as published by the
// tests (lbd = len).
func checkClause(t *testing.T, k uint64, got []uint32, lbd int32) {
	t.Helper()
	want := ringClause(k)
	if lbd != int32(len(want)) || len(got) != len(want) {
		t.Fatalf("clause %d: shape mismatch (lbd %d len %d)", k, lbd, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clause %d: payload mismatch at %d", k, i)
		}
	}
}

// TestShareRingRoundTrip drives one writer and one reader in lock step
// past the log's capacity: every published clause arrives once, in
// order, bit-exact.
func TestShareRingRoundTrip(t *testing.T) {
	rd := shareReader{log: newShareLog()}
	if _, _, ok := rd.read(); ok {
		t.Fatal("read from empty log succeeded")
	}
	for k := uint64(0); k < 3*shareRingSlots/2; k++ {
		want := ringClause(k)
		rd.log.publish(want, int32(len(want)))
		got, lbd, ok := rd.read()
		if !ok {
			t.Fatalf("clause %d not readable after publish", k)
		}
		checkClause(t, k, got, lbd)
		if _, _, ok := rd.read(); ok {
			t.Fatalf("clause %d: spurious second read", k)
		}
	}
}

// TestShareRingOverflow pins the lapped-reader rule: a reader more than
// shareRingSlots clauses behind resumes at the oldest clause the log
// still holds — exactly clause count-shareRingSlots — and then reads
// every newer clause in order. A reader exactly shareRingSlots behind
// has lost nothing.
func TestShareRingOverflow(t *testing.T) {
	l := newShareLog()
	total := uint64(5 * shareRingSlots / 2)
	for k := uint64(0); k < total; k++ {
		c := ringClause(k)
		l.publish(c, int32(len(c)))
	}
	for _, start := range []uint64{0, 1, total - shareRingSlots - 1, total - shareRingSlots} {
		rd := shareReader{log: l, next: start}
		want := max(start, total-shareRingSlots)
		for ; want < total; want++ {
			got, lbd, ok := rd.read()
			if !ok {
				t.Fatalf("reader from %d: clause %d unreadable", start, want)
			}
			if rd.next-1 != want {
				t.Fatalf("reader from %d: accepted clause %d, want %d", start, rd.next-1, want)
			}
			checkClause(t, want, got, lbd)
		}
		if _, _, ok := rd.read(); ok {
			t.Fatalf("reader from %d: read past the newest clause", start)
		}
	}
}

// unsat3SAT fills s with a fixed random 3-SAT instance at clause
// ratio 4.6 — just past the phase transition, so the chosen seeds are
// UNSAT with resolution proofs hard enough (thousands of conflicts) to
// outlive several portfolio slices and export plenty of short,
// low-LBD lemmas.
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

// TestPortfolioSharingImports runs a sharing portfolio on
// an UNSAT instance that outlives the first scheduling slice and checks
// the cooperation actually happened: clauses were exported, later
// members imported them, and the verdict matches the plain solver.
func TestPortfolioSharingImports(t *testing.T) {
	single := New()
	unsat3SAT(single, 200, 2)
	if st := single.Solve(); st != Unsat {
		t.Fatalf("reference instance must be UNSAT, got %v", st)
	}
	if single.Stats.Conflicts <= 3*sliceUnit {
		// Member 0 alone gets 2000+4000 conflicts before member 1 ever
		// runs; the instance must outlive that for imports to happen.
		t.Fatalf("instance too easy (%d conflicts) to exercise sharing", single.Stats.Conflicts)
	}

	p := NewPortfolio(PortfolioOptions{Workers: 2, Seed: 3})
	unsat3SAT(p, 200, 2)
	if st := p.Solve(); st != Unsat {
		t.Fatalf("sharing portfolio: got %v want UNSAT", st)
	}
	agg := p.Stats()
	if agg.Exported == 0 {
		t.Fatal("no clauses exported")
	}
	if agg.Imported == 0 {
		t.Fatal("no clauses imported: members did not cooperate")
	}

}

// TestSharingWithAssumptions mirrors the LEC probe pattern onto a
// sharing portfolio: interleaved assumption solves and
// incremental clause additions must agree with brute force even while
// members exchange clauses (shared lemmas are consequences of the
// formula alone, so assumptions must never leak through the logs).
func TestSharingWithAssumptions(t *testing.T) {
	rng := uint64(0xabcdef)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		numVars := 5 + next(12)
		numClauses := 2 + next(4*numVars)
		cnf := make([][]int, 0, numClauses)
		for i := 0; i < numClauses; i++ {
			w := 1 + next(4)
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
		p := NewPortfolio(PortfolioOptions{Workers: 3, Seed: uint64(trial)})
		// Tiny restart units force frequent restart-boundary imports
		// even on these small instances.
		for _, m := range p.members {
			m.lubyUnit = 1
		}
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
		if got, want := p.Solve(), brute(numVars, cnf); (got == Sat) != want {
			t.Fatalf("trial %d: portfolio=%v brute=%v cnf=%v", trial, got, want, cnf)
		} else if got == Sat {
			verifyPortfolioModel(t, p, cnf, trial)
		}
		for round := 0; round < 3; round++ {
			na := 1 + next(3)
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
			}
		}
	}
}
