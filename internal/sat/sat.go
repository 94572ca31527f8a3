// Package sat implements a from-scratch modern CDCL SAT solver:
// two-literal watching with blocker literals, specialized binary-clause
// watch lists, VSIDS-style variable activity, first-UIP clause learning
// with recursive learnt-clause minimization, LBD (glue) tracking with
// activity+LBD-driven clause-database reduction, phase saving, and Luby
// restarts. Clause bodies live in one contiguous uint32 arena with
// inline headers (see arena.go); clause references are arena offsets,
// and reduceDB compacts the arena in place. The solve loop runs on
// preallocated scratch buffers and allocates in steady state only for
// the learnt clauses and watch-list growth. It backs the logic
// equivalence checker (the paper's Conformal LEC substitute) and the
// oracle-guided SAT-attack demonstration.
//
// The public API uses DIMACS conventions: variables are positive
// integers allocated by NewVar, a literal is +v or -v. All operations
// are deterministic: the same sequence of AddClause/Solve calls on the
// same Options yields the same statuses and models on every run.
// Cancellation has one input, the caller-owned Options.Stop flag: while
// it is up every solve returns Unknown and leaves the solver reusable.
// The Portfolio layer (portfolio.go) time-slices diverging members on
// one goroutine and keeps the same bit-exact reproducibility;
// NewPortfolio is the constructor callers use, and its one-member form
// answers exactly like a Solver.
package sat

import (
	"sort"
	"sync/atomic"
)

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

const noReason cref = -1

// defaultLubyUnit scales the Luby restart sequence (conflicts per
// restart); Options.LubyUnit overrides it per solver.
const defaultLubyUnit = 128

// Polarity selects the decision-phase policy of a solver.
type Polarity int

const (
	// PolaritySaved is the default: every variable starts with phase
	// false and keeps the phase it last held (phase saving).
	PolaritySaved Polarity = iota
	// PolarityRandom draws each variable's initial phase from the
	// solver's seeded stream; phase saving still applies afterwards.
	// Requires Options.Seed != 0.
	PolarityRandom
)

// Options tunes a solver instance. The zero value is the deterministic
// default configuration used by New. Two solvers built with identical
// Options and fed the identical NewVar/AddClause/Solve sequence produce
// bit-identical runs — same statuses, same models, same Stats — which
// is what lets portfolio members diverge reproducibly: divergence comes
// only from explicitly different Seed/Polarity/LubyUnit values, never
// from scheduling.
type Options struct {
	// Seed, when non-zero, enables the solver's xorshift decision
	// stream: roughly 1 in 64 branching decisions picks a random
	// variable instead of the activity maximum, and PolarityRandom
	// draws initial phases from the same stream. Seed == 0 disables
	// all randomness (the New default).
	Seed uint64
	// Polarity selects the initial decision phase policy.
	Polarity Polarity
	// LubyUnit is the conflicts-per-restart scale of the Luby sequence
	// (0 = the default 128). Portfolio members use different units so
	// their restart schedules interleave.
	LubyUnit int
	// Stop, when non-nil, is the caller's cancellation flag, checked
	// at solve entry and in the conflict loop. It is level-triggered
	// and the solver never writes it: while it is up every solve
	// returns Unknown, and the caller lowers it to solve again. A
	// stopped solve leaves the solver at decision level zero with every
	// clause, learnt ones included, intact, so a re-solve answers like
	// a fresh solver on the same instance. One flag can stop a whole
	// fleet of solvers.
	Stop *atomic.Bool
}

// watcher is one entry of a long-clause (≥4 literals) watch list. The
// blocker is some other literal of the clause: when it is already true
// the clause is satisfied and the clause body is never dereferenced,
// which skips the cache miss that dominates propagation cost.
type watcher struct {
	c       cref
	blocker uint32
}

// binWatcher is one entry of a binary-clause watch list: when the
// watched literal is falsified, other is immediately unit (or the
// clause c is conflicting). Binary clauses never move their watches.
type binWatcher struct {
	other uint32
	c     cref
}

// triWatcher is one entry of a ternary-clause watch list. All three
// literals are watched and the watcher carries the other two, so
// ternary propagation (the bulk of a Tseitin encoding) never
// dereferences the clause body and never moves a watch.
type triWatcher struct {
	a, b uint32
	c    cref
}

// Solver holds one CNF instance. The zero value is not usable; call
// New or NewWithOptions.
type Solver struct {
	arena []uint32 // clause arena: inline headers + literals (arena.go)

	// Watch lists (watch.go): literal -> its watchers, one slice per kind.
	wBin  [][]binWatcher // binary clauses
	wTri  [][]triWatcher // ternary clauses
	wLong [][]watcher    // long clauses (≥4 lits)

	assignLit []int8 // literal -> -1 unassigned / 0 false / 1 true
	assign    []int8 // var -> -1 unassigned / 0 false / 1 true
	level     []int32
	reason    []cref
	polarity  []int8 // saved phase
	activity  []float64
	varInc    float64
	claInc    float64

	trail    []uint32
	trailLim []int
	qhead    int

	numLearnt  int
	numProblem int // non-learnt clause count, sets the learnt cap

	heap    []int32 // binary max-heap of vars by activity
	heapPos []int32 // var -> heap index or -1

	unsat bool // empty clause encountered during AddClause

	opts     Options
	rng      uint64 // xorshift state; 0 = randomness disabled
	lubyUnit int64
	stop     *atomic.Bool // caller cancellation (Options.Stop)

	// Preallocated scratch (reused across calls, never shrunk).
	seen      []byte   // var -> conflict-analysis mark
	toClear   []int32  // vars whose seen mark must be reset
	learntBuf []uint32 // learnt-clause assembly buffer
	minStack  []int32  // recursive-minimization DFS stack
	addMark   []byte   // var -> AddClause dedup mark (bit0 pos, bit1 neg)
	addBuf    []uint32 // AddClause literal buffer
	lbdStamp  []uint32 // level -> stamp for LBD counting
	lbdTick   uint32
	reduceBuf []cref // candidate list for reduceDB

	// Inprocessing state (simplify.go).
	elim       []byte     // var -> eliminated by bounded variable elimination
	frozen     []byte     // var -> has appeared in assumptions; never eliminate
	touched    []byte     // var -> a problem clause over it came or went since its last failed elimination try
	elimAt     []elimSpan // var -> its removed clauses in elimLits, while eliminated
	elimLits   []uint32   // removed clauses, [len, lits...] per clause, in elimination order
	extMemo    []uint32   // var -> modelEpoch<<1 | extended value of an eliminated var
	modelEpoch uint32     // stamps extMemo entries of the current model (1 .. 1<<31-1)
	numElim    int        // variables currently eliminated
	lastSimp   int        // numProblem after the last simplify run
	simpCls    []cref     // scratch: live problem clauses
	simpSig    []uint64   // scratch: clause signatures, parallel to simpCls
	simpOcc    [][]int32  // scratch: literal -> indices into simpCls
	simpDirty  litLists   // scratch: literal -> indices of non-clean clauses
	simpFlag   []uint8    // scratch: per-index subsumer bookkeeping, parallel to simpCls
	simpUnits  []uint32   // scratch: units deferred to after compaction
	simpBuf    []uint32   // scratch: shortened-clause assembly
	simpBuf2   []uint32   // scratch: subsumer literal copy
	bvePos     []int32    // scratch: positive-occurrence clause indices
	bveNeg     []int32    // scratch: negative-occurrence clause indices
	bveRes     []uint32   // scratch: resolvent batch, [len, lits...] per clause
	bveOne     []uint32   // scratch: single-resolvent assembly
	litMark    []byte     // literal -> subsumption/resolution mark

	// Stats counts solver work for reporting.
	Stats Stats
}

// Stats counts the work of one solver (or, summed via Portfolio.Stats,
// of a whole portfolio).
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnt       int64
	Restarts     int64
	Minimized    int64 // literals removed by learnt-clause minimization
	Reduced      int64 // learnt clauses deleted by reduceDB
	Compactions  int64 // arena compactions (one per effective reduceDB)
	Subsumed     int64 // problem clauses removed by subsumption
	Strengthened int64 // literals removed by self-subsumption
	ElimVars     int64 // variables removed by bounded variable elimination
	Reintroduced int64 // eliminated variables restored on later mention
	// SubsumeChecks counts candidate clause bodies scanned by
	// subsumption and self-subsumption.
	SubsumeChecks int64
	// BVETries counts bounded-variable-elimination attempts.
	BVETries int64
}

// add accumulates o into s (used by the portfolio aggregation).
func (s *Stats) add(o Stats) {
	s.Conflicts += o.Conflicts
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Learnt += o.Learnt
	s.Restarts += o.Restarts
	s.Minimized += o.Minimized
	s.Reduced += o.Reduced
	s.Compactions += o.Compactions
	s.Subsumed += o.Subsumed
	s.Strengthened += o.Strengthened
	s.ElimVars += o.ElimVars
	s.Reintroduced += o.Reintroduced
	s.SubsumeChecks += o.SubsumeChecks
	s.BVETries += o.BVETries
}

// New returns an empty solver with the deterministic default Options.
func New() *Solver {
	return NewWithOptions(Options{})
}

// NewWithOptions returns an empty solver with the given configuration.
func NewWithOptions(opt Options) *Solver {
	unit := int64(opt.LubyUnit)
	if unit <= 0 {
		unit = defaultLubyUnit
	}
	return &Solver{
		varInc:   1.0,
		claInc:   1.0,
		opts:     opt,
		rng:      opt.Seed,
		lubyUnit: unit,
		stop:     opt.Stop,
	}
}

// nextRand advances the solver's xorshift64 stream. Only called when
// rng != 0, and the state never becomes 0.
func (s *Solver) nextRand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// interrupted reports whether this solve must stop now.
func (s *Solver) interrupted() bool {
	return s.stop != nil && s.stop.Load()
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of live (non-deleted) clauses,
// problem and learnt together.
func (s *Solver) NumClauses() int { return s.numProblem + s.numLearnt }

// NumProblemClauses returns the number of live problem (non-learnt)
// clauses. The SAT-attack regression tests use it to bound encoding
// growth per iteration.
func (s *Solver) NumProblemClauses() int { return s.numProblem }

// NewVar allocates a fresh variable and returns its positive index
// (1-based).
func (s *Solver) NewVar() int {
	phase := int8(0)
	if s.opts.Polarity == PolarityRandom && s.rng != 0 {
		phase = int8(s.nextRand() >> 63)
	}
	s.assign = append(s.assign, -1)
	s.assignLit = append(s.assignLit, -1, -1)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.polarity = append(s.polarity, phase)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.addMark = append(s.addMark, 0)
	s.lbdStamp = append(s.lbdStamp, 0)
	s.elim = append(s.elim, 0)
	s.frozen = append(s.frozen, 0)
	s.touched = append(s.touched, 1)
	s.elimAt = append(s.elimAt, elimSpan{})
	s.extMemo = append(s.extMemo, 0)
	s.litMark = append(s.litMark, 0, 0)
	s.wBin = append(s.wBin, nil, nil)
	s.wTri = append(s.wTri, nil, nil)
	s.wLong = append(s.wLong, nil, nil)
	v := int32(len(s.assign) - 1)
	s.heapPos = append(s.heapPos, -1)
	s.heapInsert(v)
	return int(v) + 1
}

// intLit converts a DIMACS literal to the internal encoding
// (var<<1 | neg).
func intLit(l int) uint32 {
	if l > 0 {
		return uint32(l-1) << 1
	}
	return uint32(-l-1)<<1 | 1
}

func litVar(l uint32) int32 { return int32(l >> 1) }
func litNeg(l uint32) bool  { return l&1 == 1 }

// value returns the literal's current truth value: -1/0/1, as a single
// load from the literal-indexed assignment array.
func (s *Solver) value(l uint32) int8 { return s.assignLit[l] }

// AddClause adds a clause over DIMACS literals. Adding a clause after
// solving is allowed only at decision level zero (the solver backtracks
// automatically). An empty clause makes the instance trivially UNSAT.
func (s *Solver) AddClause(lits ...int) {
	s.cancelUntil(0)
	// A clause mentioning a variable that bounded variable elimination
	// removed forces that variable (and, cascading, any eliminated
	// variable its stored clauses mention) back into the instance first.
	if s.numElim > 0 {
		for _, l := range lits {
			v := l
			if v < 0 {
				v = -v
			}
			if v > 0 && v <= len(s.elim) && s.elim[v-1] != 0 {
				s.reintroduce(int32(v - 1))
			}
		}
	}
	// Deduplicate and detect tautologies with the per-var mark bytes
	// (bit0 = positive seen, bit1 = negative seen); no map, no
	// allocation beyond the literal buffer.
	out := s.addBuf[:0]
	taut := false
	sat0 := false
	for _, l := range lits {
		if l == 0 {
			panic("sat: zero literal")
		}
		v := l
		mark := byte(1)
		if l < 0 {
			v = -l
			mark = 2
		}
		vi := v - 1
		m := s.addMark[vi]
		if m&(mark^3) != 0 {
			taut = true // x ∨ ¬x
			break
		}
		if m&mark != 0 {
			continue // duplicate
		}
		s.addMark[vi] = m | mark
		il := intLit(l)
		switch s.value(il) {
		case 1:
			sat0 = true // already satisfied at level 0
		case 0:
			continue // falsified at level 0: drop literal
		}
		if sat0 {
			break
		}
		out = append(out, il)
	}
	for _, l := range lits { // clear every mark, including dropped literals
		if l > 0 {
			s.addMark[l-1] = 0
		} else {
			s.addMark[-l-1] = 0
		}
	}
	s.addBuf = out[:0]
	if taut || sat0 {
		return
	}
	switch len(out) {
	case 0:
		s.unsat = true
	case 1:
		if !s.enqueue(out[0], noReason) {
			s.unsat = true
		} else if conf := s.propagate(); conf >= 0 {
			s.unsat = true
		}
	default:
		s.attachClause(out, false, 0)
	}
}

// attachClause copies lits into the arena and installs the watches.
func (s *Solver) attachClause(lits []uint32, learnt bool, lbd int32) cref {
	c := s.allocClause(lits, learnt, lbd)
	s.watchClause(c, s.claLits(c))
	if learnt {
		s.numLearnt++
	} else {
		s.numProblem++
	}
	return c
}

// watchClause installs the watch-list entries for clause c. Positions
// 0 and 1 are watched for long clauses; binary and ternary clauses
// watch every literal.
func (s *Solver) watchClause(c cref, lits []uint32) {
	switch len(lits) {
	case 2:
		s.wBin[lits[0]^1] = append(s.wBin[lits[0]^1], binWatcher{other: lits[1], c: c})
		s.wBin[lits[1]^1] = append(s.wBin[lits[1]^1], binWatcher{other: lits[0], c: c})
	case 3:
		s.wTri[lits[0]^1] = append(s.wTri[lits[0]^1], triWatcher{a: lits[1], b: lits[2], c: c})
		s.wTri[lits[1]^1] = append(s.wTri[lits[1]^1], triWatcher{a: lits[0], b: lits[2], c: c})
		s.wTri[lits[2]^1] = append(s.wTri[lits[2]^1], triWatcher{a: lits[0], b: lits[1], c: c})
	default:
		s.wLong[lits[0]^1] = append(s.wLong[lits[0]^1], watcher{c: c, blocker: lits[1]})
		s.wLong[lits[1]^1] = append(s.wLong[lits[1]^1], watcher{c: c, blocker: lits[0]})
	}
}

// locked reports whether the clause is currently the reason of an
// assignment and must not be deleted. Long clauses always assert
// lits[0]; ternary propagation does not normalize literal order, so
// every literal of a 3-clause is checked.
func (s *Solver) locked(c cref) bool {
	lits := s.claLits(c)
	if len(lits) == 3 {
		for _, l := range lits {
			if s.reason[litVar(l)] == c && s.assignLit[l] == 1 {
				return true
			}
		}
		return false
	}
	v := litVar(lits[0])
	return s.reason[v] == c && s.assignLit[lits[0]] == 1
}

// reduceDB deletes roughly half of the learnt clauses when the learnt
// database outgrows the problem clauses, then compacts the arena in
// place (see compact). Victims are picked by glue first (higher LBD
// goes first) and clause activity second (colder clauses go first);
// binary clauses, glue clauses (LBD ≤ 2) and clauses that are the
// reason of a current assignment are kept.
func (s *Solver) reduceDB() {
	limit := 2*s.numProblem + 10000
	if s.numLearnt <= limit {
		return
	}
	cand := s.reduceBuf[:0]
	s.forEachClause(func(c cref) {
		if s.claLearnt(c) && s.claSize(c) > 2 && s.claLBD(c) > 2 && !s.locked(c) {
			cand = append(cand, c)
		}
	})
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		if la, lb := s.claLBD(a), s.claLBD(b); la != lb {
			return la > lb
		}
		if aa, ab := s.claAct(a), s.claAct(b); aa != ab {
			return aa < ab
		}
		return a < b // deterministic tie-break
	})
	for _, c := range cand[:len(cand)/2] {
		s.claMarkDeleted(c)
		s.numLearnt--
		s.Stats.Reduced++
	}
	s.reduceBuf = cand[:0]
	s.compact()
}

// enqueue assigns literal l true with the given reason clause.
// It returns false on conflict with an existing assignment.
func (s *Solver) enqueue(l uint32, from cref) bool {
	switch s.value(l) {
	case 1:
		return true
	case 0:
		return false
	}
	v := litVar(l)
	if litNeg(l) {
		s.assign[v] = 0
	} else {
		s.assign[v] = 1
	}
	s.assignLit[l] = 1
	s.assignLit[l^1] = 0
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// enq assigns literal l true with the given reason, without checking
// the current value — propagate's callers have already established the
// literal is unassigned. Small enough to inline into the propagation
// loop, unlike enqueue.
func (s *Solver) enq(l uint32, from cref) {
	v := litVar(l)
	s.assign[v] = int8((l & 1) ^ 1)
	s.assignLit[l] = 1
	s.assignLit[l^1] = 0
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the arena reference
// of a conflicting clause or -1.
func (s *Solver) propagate() cref {
	props := int64(0) // accumulated into Stats once, outside the hot loop
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		props++
		// Binary clauses: no watch movement, no clause dereference.
		for _, bw := range s.wBin[p] {
			switch s.assignLit[bw.other] {
			case 0:
				s.qhead = len(s.trail)
				s.Stats.Propagations += props
				return bw.c
			case -1:
				s.enq(bw.other, bw.c)
			}
		}
		// Ternary clauses: the watcher carries the other two literals,
		// so unit/conflict detection is two loads with no watch
		// movement.
		for _, tw := range s.wTri[p] {
			va := s.assignLit[tw.a]
			if va == 1 {
				continue
			}
			vb := s.assignLit[tw.b]
			if vb == 1 {
				continue
			}
			if va == 0 {
				if vb == 0 {
					s.qhead = len(s.trail)
					s.Stats.Propagations += props
					return tw.c
				}
				s.enq(tw.b, tw.c)
			} else if vb == 0 {
				s.enq(tw.a, tw.c)
			}
		}
		// Long clauses. Watch moves append to *other* literals' lists
		// (the new watch is never ¬p: it must be non-false while ¬p is
		// false), so p's list is only compacted in place (ws[j] = w)
		// while it is scanned.
		ws := s.wLong[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Blocker check: if some other literal of the clause is
			// already true, keep the watcher without touching the clause.
			bval := s.value(w.blocker)
			if bval == 1 {
				// Keep: the self-store is skipped while no watcher has
				// been dropped (j == i), which is the common case and
				// keeps the list's cache lines clean.
				if j != i {
					ws[j] = w
				}
				j++
				continue
			}
			// The clause body is addressed directly in the arena: the
			// watched literals live at c+claHdrWords(+1), on the same
			// cache line as the header, and the size word is only read
			// when the watch scan actually runs — the keep paths above
			// and below never need it.
			base := w.c + claHdrWords
			l0, l1 := s.arena[base], s.arena[base+1]
			// Normalize so that position 1 holds the falsified watch ¬p.
			if l0^1 == p {
				l0, l1 = l1, l0
				s.arena[base], s.arena[base+1] = l0, l1
			}
			first := l0
			va := bval // the blocker's value doubles as first's when they coincide
			if first != w.blocker {
				va = s.value(first)
				if va == 1 {
					ws[j] = watcher{c: w.c, blocker: first}
					j++
					continue
				}
			}
			// Find a new watch.
			found := false
			for k, end := base+2, base+s.claSize(w.c); k < end; k++ {
				lk := s.arena[k]
				if s.value(lk) != 0 {
					s.arena[base+1], s.arena[k] = lk, l1
					s.wLong[lk^1] = append(s.wLong[lk^1], watcher{c: w.c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue // watch moved; drop from this list
			}
			// Clause is unit or conflicting (va was loaded before the
			// watch scan, which assigns nothing).
			ws[j] = watcher{c: w.c, blocker: first}
			j++
			if va == 0 {
				// Conflict: keep remaining watches and report.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.wLong[p] = ws[:j]
				s.qhead = len(s.trail)
				s.Stats.Propagations += props
				return w.c
			}
			s.enq(first, w.c)
		}
		s.wLong[p] = ws[:j]
	}
	s.Stats.Propagations += props
	return -1
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := litVar(l)
		s.polarity[v] = int8((l & 1) ^ 1) // branchless phase save
		s.assign[v] = -1
		s.assignLit[l] = -1
		s.assignLit[l^1] = -1
		s.reason[v] = noReason
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// analyze computes a 1-UIP learnt clause from a conflict, minimizes it
// recursively, and returns the clause (backed by internal scratch — the
// caller must copy it before the next analyze), the backtrack level,
// and its LBD.
func (s *Solver) analyze(confl cref) (learnt []uint32, backLvl int, lbd int32) {
	learnt = s.learntBuf[:0]
	learnt = append(learnt, 0) // slot for the asserting literal
	seen := s.seen
	counter := 0
	var p uint32
	pSet := false
	idx := len(s.trail) - 1
	for {
		if s.claLearnt(confl) {
			s.bumpClause(confl)
		}
		for _, q := range s.claLits(confl) {
			if pSet && q == p {
				continue
			}
			v := litVar(q)
			if seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			seen[v] = 1
			s.toClear = append(s.toClear, v)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal on the trail to resolve on.
		for {
			p = s.trail[idx]
			idx--
			if seen[litVar(p)] != 0 {
				break
			}
		}
		pSet = true
		counter--
		seen[litVar(p)] = 0
		if counter == 0 {
			break
		}
		confl = s.reason[litVar(p)]
	}
	learnt[0] = p ^ 1

	// Recursive minimization: drop any literal implied by the rest of
	// the clause through the implication graph.
	var abstract uint32
	for _, q := range learnt[1:] {
		abstract |= 1 << (uint32(s.level[litVar(q)]) & 31)
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := litVar(learnt[i])
		if s.reason[v] == noReason || !s.litRedundant(v, abstract) {
			learnt[j] = learnt[i]
			j++
		} else {
			s.Stats.Minimized++
		}
	}
	learnt = learnt[:j]
	s.learntBuf = learnt

	// Clear every analysis mark (idempotent for the in-loop clears).
	for _, v := range s.toClear {
		seen[v] = 0
	}
	s.toClear = s.toClear[:0]

	// Backtrack level: the highest level among the other literals.
	backLvl = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[litVar(learnt[i])] > s.level[litVar(learnt[maxI])] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backLvl = int(s.level[litVar(learnt[1])])
	}

	// LBD: distinct decision levels in the final clause, counted with a
	// stamp array (no per-call allocation, no map).
	for len(s.lbdStamp) <= s.decisionLevel() {
		s.lbdStamp = append(s.lbdStamp, 0)
	}
	s.lbdTick++
	for _, q := range learnt {
		lv := s.level[litVar(q)]
		if s.lbdStamp[lv] != s.lbdTick {
			s.lbdStamp[lv] = s.lbdTick
			lbd++
		}
	}
	return learnt, backLvl, lbd
}

// litRedundant reports whether the assignment of v is implied by
// seen-marked literals (the learnt clause) through the implication
// graph, using an explicit DFS stack. Antecedent vars proven redundant
// stay marked, memoizing the result for the remaining literals; all
// marks are cleared at the end of analyze.
func (s *Solver) litRedundant(v int32, abstract uint32) bool {
	stack := s.minStack[:0]
	stack = append(stack, v)
	top := len(s.toClear)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range s.claLits(s.reason[u]) {
			qv := litVar(q)
			if qv == u || s.seen[qv] != 0 || s.level[qv] == 0 {
				continue
			}
			if s.reason[qv] == noReason || (1<<(uint32(s.level[qv])&31))&abstract == 0 {
				// Cannot be resolved away: undo the marks made here.
				for len(s.toClear) > top {
					s.seen[s.toClear[len(s.toClear)-1]] = 0
					s.toClear = s.toClear[:len(s.toClear)-1]
				}
				s.minStack = stack[:0]
				return false
			}
			s.seen[qv] = 1
			s.toClear = append(s.toClear, qv)
			stack = append(stack, qv)
		}
	}
	s.minStack = stack[:0]
	return true
}

func (s *Solver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

// pickBranch returns the unassigned variable with highest activity, or
// -1 when all variables are assigned. Eliminated variables are skipped
// (and drop out of the heap until reintroduction re-inserts them):
// nothing constrains them, and an arbitrary branch value would
// contradict the model extension over their removed clauses.
func (s *Solver) pickBranch() int32 {
	for len(s.heap) > 0 {
		v := s.heap[0]
		s.heapRemoveTop()
		if s.assign[v] < 0 && s.elim[v] == 0 {
			return v
		}
	}
	return -1
}

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	// Find the subsequence containing i: size = 2^k - 1.
	var k uint
	var size int64 = 1
	for size < i+1 {
		k++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		k--
		i = i % size
	}
	return int64(1) << (k)
}

// Solve runs the CDCL loop under the given DIMACS assumption literals.
// Assumptions are applied as temporary decisions below the search; the
// instance itself is unchanged afterwards. Results are deterministic
// for a given Options configuration unless the solve is stopped.
func (s *Solver) Solve(assumptions ...int) Status {
	return s.solve(-1, assumptions)
}

// SolveLimited is Solve with a conflict budget: it returns Unknown when
// the budget is exhausted (or the solve is stopped) before a result
// is reached; the instance and learnt clauses are kept either way. SAT
// sweeping uses it for bounded-effort equivalence probes; budget < 0
// means unlimited.
func (s *Solver) SolveLimited(budget int64, assumptions ...int) Status {
	return s.solve(budget, assumptions)
}

func (s *Solver) solve(budget int64, assumptions []int) Status {
	if s.interrupted() {
		return Unknown
	}
	if s.unsat {
		return Unsat
	}
	s.cancelUntil(0)
	if conf := s.propagate(); conf >= 0 {
		s.unsat = true
		return Unsat
	}
	// Assumption variables are frozen against elimination forever (the
	// caller may assume them again), and any already eliminated are
	// restored before they are assumed.
	for _, a := range assumptions {
		v := a
		if v < 0 {
			v = -v
		}
		s.frozen[v-1] = 1
		if s.elim[v-1] != 0 {
			s.reintroduce(int32(v - 1))
		}
	}
	if s.unsat {
		return Unsat
	}
	// Solve-entry inprocessing: subsumption, self-subsumption and
	// bounded variable elimination, gated on problem-clause growth.
	s.maybeSimplify()
	if s.unsat {
		return Unsat
	}
	// Apply assumptions as decisions.
	for _, a := range assumptions {
		l := intLit(a)
		switch s.value(l) {
		case 1:
			continue
		case 0:
			s.cancelUntil(0)
			return Unsat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, noReason)
		if conf := s.propagate(); conf >= 0 {
			s.cancelUntil(0)
			return Unsat
		}
	}
	rootLevel := s.decisionLevel()

	var restarts int64
	conflictLimit := s.lubyUnit * luby(0)
	conflicts := int64(0)
	total := int64(0)
	for {
		// Cooperative cancellation: one flag load per loop iteration
		// (conflict or decision); backtracking to level 0 keeps the
		// solver reusable.
		if s.interrupted() {
			s.cancelUntil(0)
			return Unknown
		}
		conf := s.propagate()
		if conf >= 0 {
			s.Stats.Conflicts++
			conflicts++
			total++
			if budget >= 0 && total > budget {
				s.cancelUntil(0)
				return Unknown
			}
			if s.decisionLevel() == rootLevel {
				s.cancelUntil(0)
				if rootLevel == 0 {
					s.unsat = true
				}
				return Unsat
			}
			learnt, backLvl, lbd := s.analyze(conf)
			if backLvl < rootLevel {
				backLvl = rootLevel
			}
			s.cancelUntil(backLvl)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], noReason) {
					s.cancelUntil(0)
					return Unsat
				}
			} else {
				c := s.attachClause(learnt, true, lbd)
				s.Stats.Learnt++
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.claInc > 1e20 {
				s.rescaleClauseActivity()
			}
			continue
		}
		if conflicts >= conflictLimit {
			// Luby restart; shrink the learnt database if it has
			// outgrown its budget.
			conflicts = 0
			restarts++
			conflictLimit = s.lubyUnit * luby(restarts)
			s.Stats.Restarts++
			s.cancelUntil(rootLevel)
			s.reduceDB()
			continue
		}
		v := int32(-1)
		if s.rng != 0 && len(s.heap) > 0 && s.nextRand()%64 == 0 {
			// Seeded random decision (~1/64): pick any heap entry; fall
			// through to the activity maximum if it is already assigned.
			if cand := s.heap[s.nextRand()%uint64(len(s.heap))]; s.assign[cand] < 0 && s.elim[cand] == 0 {
				v = cand
			}
		}
		if v < 0 {
			v = s.pickBranch()
		}
		if v < 0 {
			// All live variables assigned: model found (not a
			// decision). A new epoch voids the extended values of the
			// last model; Value extends eliminated variables on demand.
			s.modelEpoch++
			if s.modelEpoch == 1<<31 {
				clear(s.extMemo)
				s.modelEpoch = 1
			}
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := uint32(v) << 1
		if s.polarity[v] == 0 {
			l |= 1
		}
		s.enqueue(l, noReason)
	}
}

// Value returns the model value of variable v after a Sat result,
// until the next AddClause or solve. Eliminated variables answer from
// the model extended over their removed clauses (see extValue).
func (s *Solver) Value(v int) bool {
	if s.assign[v-1] < 0 && s.elim[v-1] != 0 {
		return s.extValue(int32(v - 1))
	}
	return s.assign[v-1] == 1
}

// --- activity heap ---

func (s *Solver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(int32(len(s.heap) - 1))
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapRemoveTop() {
	v := s.heap[0]
	s.heapPos[v] = -1
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
}

func (s *Solver) heapDown(i int32) {
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}
