package sat

import "math"

// Clause arena
//
// Every clause — problem and learnt, binary through long — lives in one
// contiguous []uint32 with a 3-word inline header directly in front of
// its literals:
//
//	word 0   size<<4 | learnt(bit 0) | deleted(bit 1) |
//	         imported(bit 2) | clean(bit 3)
//	word 1   LBD (glue) of a learnt clause
//	word 2   float32 activity bits
//	word 3…  the literals (internal encoding: var<<1 | neg)
//
// The imported bit marks clauses integrated from a peer's export log
// (reduceDB evicts that tier harder — the peer still has the clause).
// The clean bit marks problem clauses the last inprocessing round
// checked as a subsumer against every other clause and left unchanged;
// two clean clauses cannot subsume or strengthen each other, so the
// next round skips that pair (simplify.go). A fresh allocation is never
// clean, so a shortened or re-added clause is checked again.
//
// A clause reference (cref) is the arena offset of word 0; watch lists
// and the per-variable reason array store crefs. Reading a clause in
// propagation or conflict analysis therefore touches one place in one
// allocation — the header and the first literals share a cache line —
// instead of chasing a per-clause slice header to a separate backing
// array, which is what dominated propagate cost on long clauses in the
// slice-based core. reduceDB reclaims deleted clauses by sliding the
// survivors down in place (compact), remapping reason crefs and
// rebuilding the watch lists.
type cref = int32

const (
	claHdrWords     = 3
	claLearntFlag   = 1
	claDeletedFlag  = 2
	claImportedFlag = 4
	claCleanFlag    = 8
	claFlagBits     = 4
)

// allocClause appends a clause to the arena and returns its reference.
// The literal slice is copied; callers may reuse it. A new problem
// clause touches its variables for the next elimination round.
func (s *Solver) allocClause(lits []uint32, learnt bool, lbd int32) cref {
	c := cref(len(s.arena))
	hdr := uint32(len(lits)) << claFlagBits
	if learnt {
		hdr |= claLearntFlag
	} else {
		s.touch(lits)
	}
	s.arena = append(s.arena, hdr, uint32(lbd), 0)
	s.arena = append(s.arena, lits...)
	return c
}

// claSize returns the literal count of clause c.
func (s *Solver) claSize(c cref) int32 { return int32(s.arena[c] >> claFlagBits) }

// claLits returns the literal body of clause c, aliasing the arena
// (propagation reorders watches in place through it).
func (s *Solver) claLits(c cref) []uint32 {
	return s.arena[c+claHdrWords : c+claHdrWords+s.claSize(c)]
}

func (s *Solver) claLearnt(c cref) bool   { return s.arena[c]&claLearntFlag != 0 }
func (s *Solver) claDeleted(c cref) bool  { return s.arena[c]&claDeletedFlag != 0 }
func (s *Solver) claImported(c cref) bool { return s.arena[c]&claImportedFlag != 0 }
func (s *Solver) claClean(c cref) bool    { return s.arena[c]&claCleanFlag != 0 }
func (s *Solver) claLBD(c cref) int32     { return int32(s.arena[c+1]) }
func (s *Solver) claAct(c cref) float32   { return math.Float32frombits(s.arena[c+2]) }

// claMarkDeleted tombstones clause c; the size stays readable so arena
// walks can skip over it until the next compaction reclaims the words.
func (s *Solver) claMarkDeleted(c cref) { s.arena[c] |= claDeletedFlag }

// bumpClause adds the clause-activity increment to a learnt clause,
// rescaling every stored activity when the values grow too large for
// their float32 slots.
func (s *Solver) bumpClause(c cref) {
	act := float64(s.claAct(c)) + s.claInc
	if act > 1e20 {
		s.arena[c+2] = math.Float32bits(float32(act))
		s.rescaleClauseActivity()
		return
	}
	s.arena[c+2] = math.Float32bits(float32(act))
}

// rescaleClauseActivity multiplies every clause activity and the
// increment by 1e-20, keeping both inside float32 range.
func (s *Solver) rescaleClauseActivity() {
	s.forEachClause(func(c cref) {
		s.arena[c+2] = math.Float32bits(s.claAct(c) * 1e-20)
	})
	s.claInc *= 1e-20
}

// forEachClause walks the arena in layout order and calls fn for every
// live (non-deleted) clause.
func (s *Solver) forEachClause(fn func(c cref)) {
	end := cref(len(s.arena))
	for c := cref(0); c < end; c += claHdrWords + s.claSize(c) {
		if !s.claDeleted(c) {
			fn(c)
		}
	}
}

// compact slides every live clause down over the tombstoned ones so the
// arena is dense again, remapping the reason crefs of current
// assignments and rebuilding all watch lists (crefs change, so every
// watcher is stale). Copying is safe front to back because the write
// cursor never passes the read cursor. Soundness of re-watching
// positions 0 and 1 at the current decision level: they were the valid
// watches before the rebuild, and binary/ternary clauses watch every
// literal.
func (s *Solver) compact() {
	end := cref(len(s.arena))
	w := cref(0)
	for r := cref(0); r < end; {
		n := claHdrWords + s.claSize(r)
		if s.claDeleted(r) {
			r += n
			continue
		}
		if w != r {
			// Remap reasons before the clause moves: any true literal
			// whose assignment this clause produced points back at r.
			for _, l := range s.claLits(r) {
				if s.assignLit[l] == 1 && s.reason[litVar(l)] == r {
					s.reason[litVar(l)] = w
				}
			}
			copy(s.arena[w:w+n], s.arena[r:r+n])
		}
		w += n
		r += n
	}
	s.arena = s.arena[:w]
	s.resetWatches()
	s.forEachClause(func(c cref) {
		s.watchClause(c, s.claLits(c))
	})
	s.Stats.Compactions++
}
