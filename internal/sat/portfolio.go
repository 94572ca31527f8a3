package sat

import "sync/atomic"

// PortfolioOptions configures NewPortfolio.
type PortfolioOptions struct {
	// Workers is the number of member solvers; <= 0 means 1, which
	// degenerates to a plain solver behind the Portfolio surface. The
	// count is never derived from the host, so a configuration answers
	// the same on every machine.
	Workers int
	// Seed diversifies the member decision streams; the same Seed
	// builds the same member configurations on every run.
	Seed uint64
	// Stop, when non-nil and set, cancels an in-flight solve (returning
	// Unknown) from outside the portfolio — e.g. from a context watcher.
	// Every member gets it as its Options.Stop. The portfolio never
	// writes it, so a deadline that fires between solves still cancels
	// the next one, and the caller lowers it to solve again. A solve
	// that completes before the flag is observed returns its result
	// unchanged, which keeps answers bit-identical when the deadline
	// never fires.
	Stop *atomic.Bool
}

// Portfolio runs one CNF instance on N solver members whose decision
// seeds, initial polarities and restart schedules diverge (member 0 is
// always the deterministic default configuration). NewVar and AddClause
// mirror to every member, so the members stay equisatisfiable copies of
// the same instance; Solve time-slices them on the calling goroutine in
// the staircase schedule of solveStaircase.
//
// The members share no clauses: each searches on its own clause
// database, so member i's run — and its UNSAT answer — is exactly
// what a standalone NewWithOptions(MemberOptions(i, Seed)) solver
// would do given the same clauses and the same SolveLimited slices.
//
// Everything a member sees is a pure function of the schedule, so the
// result — status, model, winner and all stats — is bit-identical on
// every run and host; with Workers == 1 the portfolio is bit-identical
// to a plain solver. Portfolio is a sat.Interface and a drop-in
// replacement for a Solver.
//
// A Portfolio is not safe for concurrent use by multiple goroutines;
// only its Stop flag may be raised from another goroutine.
type Portfolio struct {
	members []*Solver
	stop    *atomic.Bool // caller cancellation (PortfolioOptions.Stop), never written here
	winner  int          // member whose model Value reads
	used    []int64      // per-member conflicts granted in the current solve
}

// NewPortfolio returns an empty portfolio of opt.Workers diverging
// members.
func NewPortfolio(opt PortfolioOptions) *Portfolio {
	n := max(opt.Workers, 1)
	p := &Portfolio{
		members: make([]*Solver, n),
		stop:    opt.Stop,
		used:    make([]int64, n),
	}
	for i := range p.members {
		p.members[i] = NewWithOptions(memberOptions(i, opt.Seed, opt.Stop))
	}
	return p
}

// MemberOptions returns the configuration of portfolio member i for a
// base seed, spread across the solver's divergence axes: member 0
// keeps the deterministic default search, the others get distinct
// non-zero decision seeds, alternating initial-polarity policies, and
// rotating Luby restart units so their restart points interleave
// instead of synchronizing. Exposed so benchmarks and tools can run a
// member configuration solo and measure the portfolio's critical path.
func MemberOptions(i int, seed uint64) Options {
	return memberOptions(i, seed, nil)
}

func memberOptions(i int, seed uint64, stop *atomic.Bool) Options {
	if i == 0 {
		return Options{Stop: stop}
	}
	// splitmix64 of the member index: distinct, never zero after the |1.
	x := seed + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	opt := Options{Seed: x | 1, Stop: stop}
	if i%2 == 0 {
		opt.Polarity = PolarityRandom
	}
	lubyUnits := [...]int{64, 256, 32, 128}
	opt.LubyUnit = lubyUnits[(i-1)%len(lubyUnits)]
	return opt
}

// Workers returns the member count.
func (p *Portfolio) Workers() int { return len(p.members) }

// Winner returns the index of the member whose answer the last solve
// returned (0 after an all-Unknown round).
func (p *Portfolio) Winner() int { return p.winner }

// NewVar allocates the same fresh variable in every member and returns
// its (shared) 1-based index.
func (p *Portfolio) NewVar() int {
	v := p.members[0].NewVar()
	for _, m := range p.members[1:] {
		m.NewVar()
	}
	return v
}

// AddClause mirrors the clause to every member.
func (p *Portfolio) AddClause(lits ...int) {
	for _, m := range p.members {
		m.AddClause(lits...)
	}
}

// Solve decides the instance under the given assumptions.
func (p *Portfolio) Solve(assumptions ...int) Status {
	return p.solve(-1, assumptions)
}

// SolveLimited is Solve with a per-member conflict budget; it returns
// Unknown only when every participating member exhausted the budget
// (or was stopped). A budget small enough to fit in one scheduling
// slice is answered canonically by member 0 alone — a bounded probe is
// a cheap heuristic, not worth N-fold work.
func (p *Portfolio) SolveLimited(budget int64, assumptions ...int) Status {
	return p.solve(budget, assumptions)
}

func (p *Portfolio) solve(budget int64, assumptions []int) Status {
	p.winner = 0
	if len(p.members) == 1 || (budget >= 0 && budget <= sliceUnit) {
		// Single member, or a bounded probe that fits in one scheduling
		// slice (the LEC sweeper's SolveLimited calls): member 0 answers
		// canonically instead of burning the same budget N times.
		return p.members[0].solve(budget, assumptions)
	}
	return p.solveStaircase(budget, assumptions)
}

// sliceUnit is the first-round conflict budget of one scheduling
// slice; round r grants sliceUnit<<r conflicts per member.
const sliceUnit = 2000

// solveStaircase runs the members one after another on the calling
// goroutine: round r gives each of the first min(r+1, N) members a
// SolveLimited slice of sliceUnit<<r conflicts, and the first
// definitive answer in (round, member) order wins. A member's search
// depends only on its own slice history, a pure function of this
// schedule, so the result (status, model, winner, stats) is
// bit-identical on every run and host. The staircase (member i joins
// in round i) additionally makes the result independent of the member
// count for every instance decided before the schedule first reaches a
// member index ≥ the smaller count — in particular, instances decided
// in rounds 0–1 (and member 0–1 of round 2) report identically for any
// Workers ≥ 2.
//
// A finite budget is per-member (budgets that fit inside the first
// slice never reach here — solve routes them to member 0).
func (p *Portfolio) solveStaircase(budget int64, assumptions []int) Status {
	used := p.used
	for i := range used {
		used[i] = 0
	}
	slice := int64(sliceUnit)
	for round := 0; ; round++ {
		active := min(round+1, len(p.members))
		progress := false
		for i := 0; i < active; i++ {
			b := slice
			if budget >= 0 {
				if rem := budget - used[i]; rem <= 0 {
					continue
				} else if b > rem {
					b = rem
				}
			}
			st := p.members[i].solve(b, assumptions)
			used[i] += b
			if st != Unknown {
				p.winner = i
				return st
			}
			if p.stop != nil && p.stop.Load() {
				return Unknown
			}
			progress = true
		}
		if !progress {
			return Unknown // every member exhausted its budget
		}
		if slice < 1<<40 {
			slice <<= 1
		}
	}
}

// Value reads variable v from the winning member's model.
func (p *Portfolio) Value(v int) bool { return p.members[p.winner].Value(v) }

// Stats sums the members' work counters — conflicts, propagations and
// the rest — so a portfolio reports all the work it did, not just
// member 0's share.
func (p *Portfolio) Stats() Stats {
	var t Stats
	for _, m := range p.members {
		t.add(m.Stats)
	}
	return t
}

// MemberStats returns the work counters of member i (0 ≤ i <
// Workers()); benchmarks use it to separate the winner's search from
// the portfolio total.
func (p *Portfolio) MemberStats(i int) Stats { return p.members[i].Stats }

// NumVars reports the shared variable count (identical in all members).
func (p *Portfolio) NumVars() int { return p.members[0].NumVars() }

// NumClauses reports member 0's live clause count. Clause counts can
// differ slightly across members (level-0 simplification during
// AddClause depends on each member's learnt units), so the
// deterministic baseline member is the stable one to report.
func (p *Portfolio) NumClauses() int { return p.members[0].NumClauses() }

// NumProblemClauses reports member 0's live problem clause count.
func (p *Portfolio) NumProblemClauses() int { return p.members[0].NumProblemClauses() }
