package sat

import "repro/internal/faultpoint"

// Inprocessing — simplification at solve entry
//
// When the problem clause set has grown enough since the last round,
// simplify applies the level-0 assignment at the top level, runs
// backward subsumption and self-subsumption over signature-filtered
// occurrence lists, and SatELite-style bounded variable elimination
// (BVE). A variable is eliminated when its non-tautological resolvent
// set is no larger than the clause set it replaces; the removed clauses
// go to a side store. Mentioning an eliminated variable again — in
// AddClause or as an assumption — restores its clauses, cascading
// through other eliminated variables they mention. Clause surgery never
// shrinks a clause in place (the arena walks stride by the header
// size); shortened clauses are re-allocated at the arena end and the
// original is tombstoned until the closing compaction reclaims it.
//
// The pass runs at decision level zero only and is deterministic:
// candidate orders come from the arena layout and variable indices,
// never from map iteration.
//
// A simplify round costs what changed since the last one, after
// SatELite's touched sets (Eén & Biere, SAT 2005), and answers exactly
// like a round that rescans everything:
//
//   - Clean clauses. A surviving problem clause ends a round clean (the
//     arena header's clean bit) when it was processed as a subsumer,
//     was not strengthened, and its scan was complete: some literal's
//     occurrence list was short enough (≤ subMaxOcc) for the
//     plain-subsumption scan, and so was every flipped list the
//     self-subsumption scan reads. Every other survivor ends the round
//     dirty, and a new allocation starts dirty. Subsumption and
//     self-subsumption are relations between clause contents, so by
//     induction over rounds no clean clause subsumes or strengthens
//     another: a complete scan compares C with every clause present
//     unchanged through the round, except — when C is already clean —
//     the clean ones, which it cannot act on by the induction
//     hypothesis. A clean subsumer therefore reads only the dirty
//     lists, the occurrence lists of the non-clean clauses. A clean
//     clause strengthened mid-round stays off them: both relations are
//     closed under shrinking the candidate (what acts on D' ⊂ D acts on
//     D), so clean subsumers still cannot act on it.
//
//   - Shortest list. A clause containing all of C's literals is on the
//     list of each of them, so plain subsumption scans the shortest
//     eligible list (dirty list for a clean C) instead of one list per
//     literal. Deletions do not allocate, and no clause can be both
//     subsumed and strengthened by the same C, so the scan order of
//     plain subsumption is free; self-subsumption keeps the per-literal
//     order with candidates ascending by index, so strengthened clauses
//     are re-allocated in the same order as a full scan would.
//
//   - Touched variables. Whether eliminating v fails is a function of
//     the problem clauses containing v. Allocating or dropping a
//     problem clause touches its variables; a failed try untouches v,
//     and BVE tries only touched variables. The deferred-unit early
//     return untouches v too: the unit assigns v at level 0 when the
//     round ends.
//
//   - Model extension on demand. Value extends an eliminated variable
//     when it is asked for: the variable defaults to false and turns
//     true when a removed clause containing it positively is not
//     satisfied by its other literals; any eliminated variable those
//     literals mention was eliminated later and is extended first,
//     recursively. Each extended value is memoized for the current
//     model (modelEpoch), so a Sat answer no longer walks every
//     eliminated variable.

const (
	// simpMinClauses is the problem size below which simplification is
	// not worth its occurrence-list setup.
	simpMinClauses = 80
	// simpGrowth re-arms simplify once the problem clauses grew by
	// 1/simpGrowth (20%) since the last run.
	simpGrowth = 5
	// subMaxOcc bounds the occurrence-list length scanned per literal
	// during subsumption (longer lists are skipped, not truncated).
	subMaxOcc = 600
	// bveMaxOcc: variables occurring more often than this in either
	// phase are not elimination candidates (resolvent counting on them
	// is quadratic and almost never pays off).
	bveMaxOcc = 16
	// bveMaxClause bounds the clauses entering a resolution step and
	// the subsumer size in subsumption checks.
	bveMaxClause = 16
	// bveMaxResolvent aborts an elimination that would create a clause
	// longer than this, whatever the literal-count balance says.
	bveMaxResolvent = 16
)

// elimSpan is the slice of elimLits ([len, lits...] per clause) holding
// the clauses removed with one eliminated variable. elimLits only
// grows, so a later elimination has a larger off.
type elimSpan struct{ off, end int32 }

// Per-index subsumer bookkeeping of one simplify round (simpFlag).
const (
	simpCovered = 1 // processed as a fully covered subsumer
	simpChanged = 2 // strengthened this round
)

// maybeSimplify runs the solve-entry simplification when the problem
// clause set grew enough since the last run to pay for the setup.
// Must be called at decision level zero.
func (s *Solver) maybeSimplify() {
	if s.unsat || s.decisionLevel() != 0 {
		return
	}
	if s.numProblem < simpMinClauses || s.numProblem < s.lastSimp+s.lastSimp/simpGrowth {
		return
	}
	s.simplify()
	s.lastSimp = s.numProblem
}

// simplify is one full inprocessing round over the problem clauses:
// level-0 clean-up, subsumption/self-subsumption, BVE, then one arena
// compaction and the deferred unit propagations.
func (s *Solver) simplify() {
	// Level-0 reasons are never resolved on (analyze skips level-0
	// vars) but would dangle when their clause is deleted or moved;
	// drop them before any clause surgery.
	for _, l := range s.trail {
		s.reason[litVar(l)] = noReason
	}
	units := s.simpUnits[:0]

	// Collect the live problem clauses and apply the level-0
	// assignment: satisfied clauses die, falsified literals drop out.
	cls := s.simpCls[:0]
	s.forEachClause(func(c cref) {
		if !s.claLearnt(c) {
			cls = append(cls, c)
		}
	})
	for i, c := range cls {
		out := s.simpBuf[:0]
		satisfied := false
		for _, l := range s.claLits(c) {
			switch s.value(l) {
			case 1:
				satisfied = true
			case 0:
				continue
			default:
				out = append(out, l)
			}
			if satisfied {
				break
			}
		}
		s.simpBuf = out
		if satisfied {
			s.dropProblem(cls, i)
		} else if len(out) < int(s.claSize(c)) {
			units = s.replaceProblem(cls, i, out, units)
		}
	}

	// Occurrence lists (literal -> clause indices) and per-clause
	// variable signatures over the survivors, then the dirty lists over
	// the non-clean ones.
	nLits := 2 * len(s.assign)
	occ := s.simpOcc
	if cap(occ) < nLits {
		occ = append(occ[:cap(occ)], make([][]int32, nLits-cap(occ))...)
	}
	occ = occ[:nLits]
	for l := range occ {
		occ[l] = occ[l][:0]
	}
	sig := s.simpSig[:0]
	flag := s.simpFlag[:0]
	for i, c := range cls {
		var sg uint64
		if c >= 0 {
			for _, l := range s.claLits(c) {
				sg |= 1 << (uint32(litVar(l)) & 63)
				occ[l] = append(occ[l], int32(i))
			}
		}
		sig = append(sig, sg)
		flag = append(flag, 0)
	}
	docc := s.buildDirtyLists(cls, nLits)

	// Backward subsumption and self-subsumption. Interruption breaks out
	// between clauses — a partially simplified database is still
	// equisatisfiable, and the compaction + deferred units below restore
	// the solver invariants — so a stop flag raised mid-preprocessing is
	// honored within one subsumption step instead of after the whole
	// pass.
	for i := range cls {
		if s.unsat || s.interrupted() {
			break
		}
		faultpoint.Hit("sat.subsume")
		if cls[i] < 0 || s.claSize(cls[i]) > bveMaxClause {
			continue
		}
		units = s.subsumeWith(cls, sig, occ, docc, flag, i, units)
	}

	// Bounded variable elimination, in variable-index order, of the
	// variables touched since their last failed try. The same
	// interruption rule applies: each completed elimination is sound on
	// its own.
	elimBefore := s.numElim
	if !s.unsat {
		for v := int32(0); v < int32(len(s.assign)); v++ {
			if s.interrupted() {
				break
			}
			if s.elim[v] != 0 || s.frozen[v] != 0 || s.assign[v] >= 0 {
				continue
			}
			faultpoint.Hit("sat.bve")
			if s.touched[v] == 0 {
				continue
			}
			// A success drops v's clauses and touches v again, which is
			// harmless: v is eliminated until a reintroduction re-adds
			// (and so touches) its clauses.
			s.touched[v] = 0
			s.Stats.BVETries++
			cls, sig, units = s.tryEliminate(cls, sig, occ, v, units)
			if s.unsat {
				break
			}
		}
	}

	// Mark the covered survivors clean for the next round; everything
	// else (resolvents, strengthened and unprocessed clauses) is dirty.
	for i, c := range cls {
		if c < 0 {
			continue
		}
		if i < len(flag) && flag[i] == simpCovered {
			s.arena[c] |= claCleanFlag
		} else {
			s.arena[c] &^= claCleanFlag
		}
	}

	// Learnt clauses mentioning a variable eliminated this round are
	// sound to keep (they are consequences of the original clauses) but
	// useless — nothing else constrains those variables — and would let
	// propagation assign them behind the model extension's back.
	if s.numElim > elimBefore {
		s.forEachClause(func(c cref) {
			if !s.claLearnt(c) {
				return
			}
			for _, l := range s.claLits(c) {
				if s.elim[litVar(l)] != 0 {
					s.claMarkDeleted(c)
					s.numLearnt--
					return
				}
			}
		})
	}

	s.simpCls = cls[:0]
	s.simpSig = sig[:0]
	s.simpFlag = flag[:0]
	s.simpOcc = occ
	s.simpDirty = docc
	s.simpUnits = units[:0]

	// Reclaim the tombstones and rebuild all watches, then apply the
	// units the clause surgery produced.
	s.compact()
	for _, u := range units {
		if s.unsat {
			break
		}
		switch s.value(u) {
		case 1:
			continue
		case 0:
			s.unsat = true
		default:
			if !s.enqueue(u, noReason) || s.propagate() >= 0 {
				s.unsat = true
			}
		}
	}
}

// litLists maps each literal to a list of clause indices, stored flat:
// list l is idx[at[l]:at[l+1]].
type litLists struct{ at, idx []int32 }

func (ll litLists) list(l uint32) []int32 { return ll.idx[ll.at[l]:ll.at[l+1]] }

// buildDirtyLists returns the dirty lists of the round: for each
// literal, the ascending indices of the non-clean clauses of cls
// containing it. They are fixed for the round, so they are laid out
// flat by a counting pass and a filling pass.
func (s *Solver) buildDirtyLists(cls []cref, nLits int) litLists {
	ll := s.simpDirty
	ll.at = append(ll.at[:0], make([]int32, nLits+1)...)
	for _, c := range cls {
		if c >= 0 && !s.claClean(c) {
			for _, l := range s.claLits(c) {
				ll.at[l+1]++
			}
		}
	}
	for l := 0; l < nLits; l++ {
		ll.at[l+1] += ll.at[l]
	}
	ll.idx = append(ll.idx[:0], make([]int32, ll.at[nLits])...)
	// Fill with at[l] as list l's cursor, which leaves at[l] at the
	// start of list l+1; shift the starts back into place after.
	for i, c := range cls {
		if c >= 0 && !s.claClean(c) {
			for _, l := range s.claLits(c) {
				ll.idx[ll.at[l]] = int32(i)
				ll.at[l]++
			}
		}
	}
	copy(ll.at[1:], ll.at[:nLits])
	ll.at[0] = 0
	return ll
}

// touch marks the variables of lits for the next elimination round.
func (s *Solver) touch(lits []uint32) {
	for _, l := range lits {
		s.touched[litVar(l)] = 1
	}
}

// dropProblem tombstones problem clause cls[i].
func (s *Solver) dropProblem(cls []cref, i int) {
	s.touch(s.claLits(cls[i]))
	s.claMarkDeleted(cls[i])
	s.numProblem--
	cls[i] = -1
}

// replaceProblem replaces problem clause cls[i] by the shortened
// literal set out — tombstone plus re-allocation at the arena end.
// Unit and empty results are deferred to the post-compaction
// propagation (watch lists are stale during simplification).
func (s *Solver) replaceProblem(cls []cref, i int, out []uint32, units []uint32) []uint32 {
	s.dropProblem(cls, i)
	switch len(out) {
	case 0:
		s.unsat = true
	case 1:
		units = append(units, out[0])
	default:
		c := s.allocClause(out, false, 0)
		s.numProblem++
		cls[i] = c
	}
	return units
}

// subsumeWith lets clause cls[i] subsume and strengthen its occurrence
// neighborhood: any clause containing all of its literals dies, and a
// clause containing all of them except one flipped literal loses that
// flipped literal (self-subsumption — the resolvent subsumes it). A
// clean subsumer reads the dirty lists docc instead of occ; which lists
// are read at all (≤ subMaxOcc) is decided on occ either way, and
// flag[i] records whether that covered every candidate.
// Occurrence lists are candidate generators only; the containment scan
// over the candidate body is authoritative, so entries staled by
// earlier strengthenings are harmless.
func (s *Solver) subsumeWith(cls []cref, sig []uint64, occ [][]int32, docc litLists, flag []uint8, i int, units []uint32) []uint32 {
	// Copy the subsumer out of the arena: strengthening re-allocates
	// clauses, which may move the arena backing array.
	lits := append(s.simpBuf2[:0], s.claLits(cls[i])...)
	s.simpBuf2 = lits
	clean := s.claClean(cls[i])
	cand := func(l uint32) []int32 {
		if clean {
			return docc.list(l)
		}
		return occ[l]
	}
	covered := true
	var plain []int32
	eligible := false
	for _, l := range lits {
		s.litMark[l] = 1
		if len(occ[l]) <= subMaxOcc {
			if list := cand(l); !eligible || len(list) < len(plain) {
				plain, eligible = list, true
			}
		}
		if len(occ[l^1]) > subMaxOcc {
			covered = false
		}
	}
	if covered && eligible && flag[i] == 0 {
		flag[i] = simpCovered
	}
	sigC := sig[i]
	n := len(lits)
	// Plain subsumption: D ⊇ C is on the list of every literal of C.
	for _, ji := range plain {
		j := int(ji)
		d := cls[j]
		if j == i || d < 0 || sigC&^sig[j] != 0 || int(s.claSize(d)) < n {
			continue
		}
		s.Stats.SubsumeChecks++
		hits := 0
		for _, m := range s.claLits(d) {
			if s.litMark[m] != 0 {
				hits++
			}
		}
		if hits == n {
			s.dropProblem(cls, j)
			s.Stats.Subsumed++
		}
	}
	// Self-subsumption: D ⊇ (C \ {l}) ∪ {¬l} loses ¬l.
	for _, l := range lits {
		if len(occ[l^1]) > subMaxOcc {
			continue
		}
		for _, ji := range cand(l ^ 1) {
			j := int(ji)
			d := cls[j]
			if j == i || d < 0 || sigC&^sig[j] != 0 || int(s.claSize(d)) < n {
				continue
			}
			s.Stats.SubsumeChecks++
			hits, hasFlip := 0, false
			for _, m := range s.claLits(d) {
				if m == l^1 {
					hasFlip = true
				} else if s.litMark[m] != 0 {
					hits++
				}
			}
			if !hasFlip || hits != n-1 {
				continue
			}
			out := s.simpBuf[:0]
			for _, m := range s.claLits(d) {
				if m != l^1 {
					out = append(out, m)
				}
			}
			s.simpBuf = out
			units = s.replaceProblem(cls, j, out, units)
			flag[j] = simpChanged
			if cls[j] >= 0 {
				var sg uint64
				for _, m := range out {
					sg |= 1 << (uint32(litVar(m)) & 63)
				}
				sig[j] = sg
			}
			s.Stats.Strengthened++
		}
	}
	for _, l := range lits {
		s.litMark[l] = 0
	}
	return units
}

// litIn reports whether lits contains l (validates stale occurrence
// entries).
func litIn(lits []uint32, l uint32) bool {
	for _, m := range lits {
		if m == l {
			return true
		}
	}
	return false
}

// tryEliminate removes variable v by resolution when its
// non-tautological resolvent set is no larger than the clause set it
// replaces (SatELite's bound) and no resolvent exceeds the length cap.
func (s *Solver) tryEliminate(cls []cref, sig []uint64, occ [][]int32, v int32, units []uint32) ([]cref, []uint64, []uint32) {
	// A deferred unit on v is a live one-literal clause that the
	// occurrence lists cannot see (its source was tombstoned); resolving
	// without it would silently drop its resolvents.
	for _, u := range units {
		if litVar(u) == v {
			return cls, sig, units
		}
	}
	lp, ln := uint32(v)<<1, uint32(v)<<1|1
	pos := s.bvePos[:0]
	for _, ji := range occ[lp] {
		if j := int(ji); cls[j] >= 0 && litIn(s.claLits(cls[j]), lp) {
			pos = append(pos, ji)
		}
	}
	neg := s.bveNeg[:0]
	for _, ji := range occ[ln] {
		if j := int(ji); cls[j] >= 0 && litIn(s.claLits(cls[j]), ln) {
			neg = append(neg, ji)
		}
	}
	s.bvePos, s.bveNeg = pos, neg
	if len(pos) == 0 && len(neg) == 0 {
		return cls, sig, units // unconstrained variable: leave it alone
	}
	if len(pos) > bveMaxOcc || len(neg) > bveMaxOcc {
		return cls, sig, units
	}
	origLits := 0
	for _, j := range pos {
		if s.claSize(cls[j]) > bveMaxClause {
			return cls, sig, units
		}
		origLits += int(s.claSize(cls[j]))
	}
	for _, j := range neg {
		if s.claSize(cls[j]) > bveMaxClause {
			return cls, sig, units
		}
		origLits += int(s.claSize(cls[j]))
	}

	// Build every non-tautological resolvent into scratch first (the
	// clause bodies alias the arena, so nothing may allocate yet). The
	// elimination must not grow the formula on either axis: no more
	// resolvents than originals (SatELite) and no more total literals
	// either (NiVER) — without the literal bound, resolving a wide
	// clause against many binaries trades cheap two-watched binaries
	// for wide clauses and measurably slows propagation.
	budget := len(pos) + len(neg)
	resBuf := s.bveRes[:0]
	count, totLits := 0, 0
	for _, pj := range pos {
		a := s.claLits(cls[pj])
		for _, nj := range neg {
			b := s.claLits(cls[nj])
			r, taut := s.resolve(a, b, v)
			if taut {
				continue
			}
			if len(r) == 0 {
				// Empty resolvent: the instance is unsatisfiable.
				s.bveRes = resBuf[:0]
				s.unsat = true
				return cls, sig, units
			}
			totLits += len(r)
			if len(r) > bveMaxResolvent || count == budget || totLits > origLits {
				s.bveRes = resBuf[:0]
				return cls, sig, units
			}
			resBuf = append(resBuf, uint32(len(r)))
			resBuf = append(resBuf, r...)
			count++
		}
	}
	s.bveRes = resBuf

	// Commit: store the removed clauses for model extension and
	// reintroduction (before any allocation moves the arena), mark the
	// variable, drop the originals, add the resolvents.
	off := int32(len(s.elimLits))
	for _, j := range pos {
		lits := s.claLits(cls[j])
		s.elimLits = append(s.elimLits, uint32(len(lits)))
		s.elimLits = append(s.elimLits, lits...)
	}
	for _, j := range neg {
		lits := s.claLits(cls[j])
		s.elimLits = append(s.elimLits, uint32(len(lits)))
		s.elimLits = append(s.elimLits, lits...)
	}
	s.elimAt[v] = elimSpan{off: off, end: int32(len(s.elimLits))}
	s.elim[v] = 1
	s.numElim++
	s.Stats.ElimVars++
	for _, j := range pos {
		s.dropProblem(cls, int(j))
	}
	for _, j := range neg {
		s.dropProblem(cls, int(j))
	}
	for k := 0; k < len(resBuf); {
		nr := int(resBuf[k])
		r := resBuf[k+1 : k+1+nr]
		k += 1 + nr
		if nr == 1 {
			units = append(units, r[0])
			continue
		}
		c := s.allocClause(r, false, 0)
		s.numProblem++
		idx := int32(len(cls))
		cls = append(cls, c)
		var sg uint64
		for _, m := range r {
			sg |= 1 << (uint32(litVar(m)) & 63)
			occ[m] = append(occ[m], idx)
		}
		sig = append(sig, sg)
	}
	s.bveRes = resBuf[:0]
	return cls, sig, units
}

// resolve computes the resolvent of a (containing v positively) and b
// (containing ¬v) on v into its own scratch, deduplicating literals
// and reporting tautologies.
func (s *Solver) resolve(a, b []uint32, v int32) (r []uint32, taut bool) {
	out := s.bveOne[:0]
	for _, l := range a {
		if litVar(l) == v {
			continue
		}
		s.litMark[l] = 1
		out = append(out, l)
	}
	for _, l := range b {
		if litVar(l) == v {
			continue
		}
		if s.litMark[l^1] != 0 {
			taut = true
			break
		}
		if s.litMark[l] != 0 {
			continue
		}
		out = append(out, l)
	}
	for _, l := range a {
		if litVar(l) != v {
			s.litMark[l] = 0
		}
	}
	s.bveOne = out
	return out, taut
}

// reintroduce restores an eliminated variable: its removed clauses are
// re-added to the instance (the resolvents stay — they are implied),
// cascading through any other eliminated variable those clauses
// mention. Must be called at decision level zero.
func (s *Solver) reintroduce(v int32) {
	if s.elim[v] == 0 {
		return
	}
	work := []int32{v}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		if s.elim[u] == 0 {
			continue
		}
		s.elim[u] = 0
		s.numElim--
		s.Stats.Reintroduced++
		if s.assign[u] < 0 && s.heapPos[u] < 0 {
			s.heapInsert(u)
		}
		sp := s.elimAt[u]
		for off := sp.off; off < sp.end; {
			nc := int32(s.elimLits[off])
			lits := s.elimLits[off+1 : off+1+nc]
			off += 1 + nc
			for _, l := range lits {
				if lv := litVar(l); s.elim[lv] != 0 {
					work = append(work, lv)
				}
			}
			s.addInternal(lits)
		}
	}
}

// addInternal attaches one stored clause during reintroduction, under
// the current level-0 assignment. The literals are already deduplicated
// and tautology-free (they passed AddClause once).
func (s *Solver) addInternal(lits []uint32) {
	out := s.addBuf[:0]
	for _, l := range lits {
		switch s.value(l) {
		case 1:
			return // satisfied at level 0: redundant forever
		case 0:
			continue
		}
		out = append(out, l)
	}
	s.addBuf = out[:0]
	switch len(out) {
	case 0:
		s.unsat = true
	case 1:
		if !s.enqueue(out[0], noReason) || s.propagate() >= 0 {
			s.unsat = true
		}
	default:
		s.attachClause(out, false, 0)
	}
}

// extValue returns the value of eliminated variable v in the model of
// the last Sat answer, extended over its removed clauses. v defaults to
// false and turns true when a removed clause containing it positively
// is not satisfied by its other literals; resolution completeness
// guarantees the negative-occurrence clauses are then satisfied by
// their own others. A removed clause mentions only variables that were
// live when v was eliminated, so any of them eliminated now was
// eliminated later and is extended first, by recursion; the values are
// those of a reverse walk over the elimination order, memoized for the
// current model.
func (s *Solver) extValue(v int32) bool {
	if m := s.extMemo[v]; m>>1 == s.modelEpoch {
		return m&1 == 1
	}
	sp := s.elimAt[v]
	posLit := uint32(v) << 1
	val := false
	for off := sp.off; off < sp.end && !val; {
		nc := int32(s.elimLits[off])
		lits := s.elimLits[off+1 : off+1+nc]
		off += 1 + nc
		hasPos := false
		satisfied := false
		for _, l := range lits {
			if litVar(l) == v {
				hasPos = hasPos || l == posLit
				continue
			}
			if s.extLitTrue(l) {
				satisfied = true
				break
			}
		}
		if hasPos && !satisfied {
			val = true
		}
	}
	m := s.modelEpoch << 1
	if val {
		m |= 1
	}
	s.extMemo[v] = m
	return val
}

// extLitTrue evaluates a literal under the extended model: every live
// variable is assigned after a Sat answer, every eliminated one is not.
func (s *Solver) extLitTrue(l uint32) bool {
	v := litVar(l)
	if s.assign[v] < 0 {
		return s.extValue(v) != litNeg(l)
	}
	return (s.assign[v] == 1) != litNeg(l)
}
