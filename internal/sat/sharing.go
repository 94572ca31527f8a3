package sat

// Clause sharing
//
// Every portfolio member owns one shareLog it appends its best learnt
// clauses to; every other member holds a shareReader with a private
// cursor into that log, so each reader sees every clause. The log keeps
// the last shareRingSlots clauses in a fixed buffer and never blocks:
// an append overwrites the oldest clause, and a reader that fell more
// than shareRingSlots clauses behind resumes at the oldest clause still
// held (drop-on-overflow). The portfolio runs its members one after
// another on one goroutine, so the log needs no synchronization.
//
// Members export at the moment a clause is learnt (exportLearnt) and
// import at restart boundaries and at solve entry (importShared), when
// the solver sits at its root decision level and a peer clause can be
// attached with sound watches, or directly fuel a conflict. Shared
// clauses are resolution consequences of the problem clauses alone —
// assumption literals are never resolved away, they stay in the
// clause — so importing is sound even across solves under different
// assumptions.

const (
	// shareMaxLits is the widest clause a slot can carry; longer learnt
	// clauses are not exported.
	shareMaxLits = 8
	// shareLBDMax is the export glue threshold for clauses longer than
	// two literals: only clauses this well-connected (low LBD) are
	// worth a peer's import work.
	shareLBDMax = 4
	// shareSlotWords is the uint32 footprint of one slot: a header word
	// (len | lbd<<16) plus the literals.
	shareSlotWords = 1 + shareMaxLits
	// shareRingSlots is the per-member log capacity in clauses (~144 KB
	// of slots per member). A reader that falls further behind loses
	// the oldest clauses.
	shareRingSlots = 1 << 12
)

// shareLog is the export log of one portfolio member.
type shareLog struct {
	buf   []uint32 // shareRingSlots * shareSlotWords slot words
	count uint64   // clauses appended so far
}

func newShareLog() *shareLog {
	return &shareLog{buf: make([]uint32, shareRingSlots*shareSlotWords)}
}

// publish appends the clause, overwriting the oldest one once the log
// is full. Callers guarantee len(lits) <= shareMaxLits.
func (l *shareLog) publish(lits []uint32, lbd int32) {
	base := (l.count % shareRingSlots) * shareSlotWords
	l.buf[base] = uint32(len(lits)) | uint32(lbd)<<16
	copy(l.buf[base+1:], lits)
	l.count++
}

// shareReader is one consumer's private cursor into a peer's log.
type shareReader struct {
	log  *shareLog
	next uint64 // next clause index to read
}

// read returns clause rd.next and advances the cursor, or ok=false
// when the log holds nothing newer. A reader that was lapped resumes
// at the oldest clause the log still holds — dropped clauses are gone
// for this reader, by design. The returned literals alias the log and
// are valid until the next publish.
func (rd *shareReader) read() (lits []uint32, lbd int32, ok bool) {
	l := rd.log
	if rd.next >= l.count {
		return nil, 0, false
	}
	if l.count-rd.next > shareRingSlots {
		rd.next = l.count - shareRingSlots
	}
	base := (rd.next % shareRingSlots) * shareSlotWords
	hdr := l.buf[base]
	rd.next++
	return l.buf[base+1 : base+1+uint64(hdr&0xffff)], int32(hdr >> 16), true
}

// exportLearnt publishes a freshly learnt clause to this member's log
// when it is short or low-glue enough to help a peer. No-op outside a
// sharing portfolio.
func (s *Solver) exportLearnt(lits []uint32, lbd int32) {
	if s.shareOut == nil || len(lits) > shareMaxLits {
		return
	}
	if len(lits) > 2 && lbd > shareLBDMax {
		return
	}
	s.shareOut.publish(lits, lbd)
	s.Stats.Exported++
}

// importShared drains every peer log into this solver. It must be
// called at the root decision level with no pending propagation
// conflict (solve entry or a restart boundary). It returns true when an
// imported clause is conflicting under the current root-level
// assignment — the caller must then return Unsat (importClause has
// already set s.unsat if the conflict is assumption-free).
func (s *Solver) importShared() bool {
	for i := range s.shareIn {
		rd := &s.shareIn[i]
		for {
			lits, lbd, ok := rd.read()
			if !ok {
				break
			}
			if s.importClause(lits, lbd) {
				return true
			}
		}
	}
	return false
}

// importClause integrates one peer clause: literals false at level 0
// are dropped, clauses satisfied at level 0 are skipped, and the rest
// is attached as a learnt clause with sound watches under the current
// root-level assignment — propagating when unit, or reporting a
// conflict (return true) when falsified. Conflicts with level-0
// assignments mark the instance unsat; conflicts above level 0 involve
// assumption pseudo-decisions and only fail the current solve.
func (s *Solver) importClause(lits []uint32, lbd int32) (conflict bool) {
	out := s.importBuf[:0]
	for _, l := range lits {
		if int(l) >= len(s.assignLit) {
			return false // out-of-range literal: drop the clause
		}
		if s.elim[litVar(l)] != 0 {
			// Mentions a variable this member eliminated: attaching it
			// would let propagation assign the variable behind the
			// model extension's back. Peers diverge here only in their
			// learnt databases, never in statuses.
			return false
		}
		switch s.value(l) {
		case 1:
			if s.level[litVar(l)] == 0 {
				return false // satisfied forever
			}
		case 0:
			if s.level[litVar(l)] == 0 {
				continue // dead literal
			}
		}
		out = append(out, l)
	}
	s.importBuf = out[:0]
	switch len(out) {
	case 0:
		// Every literal is false at level 0: the peer proved the
		// instance unsatisfiable.
		s.unsat = true
		s.Stats.Imported++
		return true
	case 1:
		l := out[0]
		s.Stats.Imported++
		switch s.value(l) {
		case 1:
			return false // already true at some level
		case 0:
			// Not false at level 0 (filtered above), so the conflict
			// involves an assumption pseudo-decision: fail this solve
			// only.
			return true
		}
		s.enqueue(l, noReason)
		return false
	}
	// Watch selection under the current assignment: two non-false
	// literals when they exist; otherwise the single non-false literal
	// plus the highest-level false one (so backtracking un-falsifies
	// the second watch first); all-false is a root-level conflict.
	w0, w1 := -1, -1
	for i, l := range out {
		if s.value(l) != 0 {
			if w0 < 0 {
				w0 = i
			} else {
				w1 = i
				break
			}
		}
	}
	if w0 < 0 {
		s.Stats.Imported++
		return true // falsified under the root-level assignment
	}
	if w1 < 0 {
		for i := range out {
			if i == w0 {
				continue
			}
			if w1 < 0 || s.level[litVar(out[i])] > s.level[litVar(out[w1])] {
				w1 = i
			}
		}
	}
	out[0], out[w0] = out[w0], out[0]
	if w1 == 0 {
		w1 = w0 // the old out[0] moved there
	}
	out[1], out[w1] = out[w1], out[1]
	if int(lbd) > len(out) {
		lbd = int32(len(out))
	}
	c := s.attachClause(out, true, lbd)
	s.arena[c] |= claImportedFlag // reduceDB evicts the import tier harder
	s.Stats.Imported++
	if s.value(out[0]) == -1 && s.value(out[1]) == 0 {
		s.enqueue(out[0], c) // unit under the current assignment
	}
	return false
}
