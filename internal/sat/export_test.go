package sat

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// InprocessingDigest hashes the solver state inprocessing shapes: the
// work counters, every clause of the arena (header fields decoded, so
// the digest does not depend on the header bit layout, and the clean
// bit is left out), and the elimination stack with its stored
// clauses. Model values are not included; callers hash Value. The
// zeros after Compactions and after Reintroduced stand for the
// counters of clause sharing and of a learnt-clause distillation pass
// the solver no longer has, and the flags word keeps bit 2 (it marked
// an imported clause) at 0, so the recorded digests still match.
func InprocessingDigest(s *Solver) [32]byte {
	h := sha256.New()
	var w [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	st := s.Stats
	for _, x := range []int64{
		st.Conflicts, st.Decisions, st.Propagations, st.Learnt,
		st.Restarts, st.Minimized, st.Reduced, st.Compactions,
		0, 0, st.Subsumed, st.Strengthened,
		st.ElimVars, st.Reintroduced, 0, 0,
	} {
		put(uint64(x))
	}
	end := cref(len(s.arena))
	put(uint64(end))
	for c := cref(0); c < end; c += claHdrWords + s.claSize(c) {
		flags := uint64(0)
		for i, b := range []bool{s.claLearnt(c), s.claDeleted(c)} {
			if b {
				flags |= 1 << i
			}
		}
		put(uint64(s.claSize(c)))
		put(flags)
		put(uint64(s.arena[c+1]))
		put(uint64(s.arena[c+2]))
		for _, l := range s.claLits(c) {
			put(uint64(l))
		}
	}
	// The elimination stack: eliminated variables in elimination
	// order, which is ascending elimLits offset.
	var stack []int32
	for v := range s.elim {
		if s.elim[v] != 0 {
			stack = append(stack, int32(v))
		}
	}
	sort.Slice(stack, func(i, j int) bool { return s.elimAt[stack[i]].off < s.elimAt[stack[j]].off })
	put(uint64(len(stack)))
	for _, v := range stack {
		sp := s.elimAt[v]
		put(uint64(v))
		put(uint64(sp.end - sp.off))
		for _, l := range s.elimLits[sp.off:sp.end] {
			put(uint64(l))
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
