package sat

import "testing"

// FuzzPortfolio cross-checks the portfolio against brute force on
// random small CNFs, in two configurations: a 3-member portfolio whose
// members restart every conflict (lubyUnit 1), and a 2-member
// portfolio with the default restart schedules and another seed.
// Statuses must match brute force, models must satisfy the instance,
// and a second solve of the same portfolio must agree again. Run with
// `go test -fuzz FuzzPortfolio ./internal/sat`.
func FuzzPortfolio(f *testing.F) {
	f.Add([]byte{7, 1, 0, 2, 1, 0, 3, 0, 1, 1, 2, 0})
	f.Add([]byte{0xff, 9, 1, 9, 0, 8, 1, 8, 0, 7, 1, 7, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0x35, 1, 0, 1, 1, 2, 0, 2, 1, 3, 0, 3, 1, 4, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		numVars, cnf, _ := cnfFromBytes(data)
		want := brute(numVars, cnf)

		eager := NewPortfolio(PortfolioOptions{Workers: 3, Seed: uint64(len(data))})
		for _, m := range eager.members {
			m.lubyUnit = 1 // restart at (nearly) every conflict
		}
		pair := NewPortfolio(PortfolioOptions{Workers: 2, Seed: uint64(len(data)) + 0x9e37})
		for _, p := range []*Portfolio{eager, pair} {
			for i := 0; i < numVars; i++ {
				p.NewVar()
			}
			for _, cl := range cnf {
				p.AddClause(cl...)
			}
			for round := 0; round < 2; round++ {
				got := p.Solve()
				if (got == Sat) != want {
					t.Fatalf("round %d: portfolio=%v brute=%v cnf=%v", round, got, want, cnf)
				}
				if got == Sat {
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
							t.Fatalf("round %d: model violates clause %v", round, cl)
						}
					}
				}
			}
		}
	})
}
