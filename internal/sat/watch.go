package sat

import "math/bits"

// Watcher arena
//
// The watch lists — long-clause watchers with blockers, and the
// specialized binary and ternary lists — live in three contiguous
// backing arrays (one per watcher type) with per-literal segments
// instead of per-literal Go slices:
//
//	wseg:   lit -> {bin seg, tri seg, long seg}  (one 64-byte record)
//	bData:  ... │ binWatchers of lit i │ binWatchers of lit j │ ...
//	tData:  ... │ triWatchers of lit i │ ...
//	wData:  ... │ watchers of lit i    │ ...
//
// A segment is {off, len, cap} into the shared array. This replaces
// the [][]watcher layout, where every literal owned three 24-byte
// slice headers pointing at three separate heap allocations:
// propagation now reads all three descriptors of a literal from one
// cache line and every list body lives in one pointer-free allocation
// per watcher type, which also takes all of the watcher storage out of
// the garbage collector's scan set.
//
// Memory management is a size-class allocator, not Go's: capacities
// are powers of two, a segment that outgrows its capacity relocates
// into a recycled block of the next class (or fresh space at the array
// end) and its old block joins the free list of its class, so the
// relocation churn of watch moves recycles memory in O(1). Segments
// that shrank park capacity the free lists cannot see, so when the
// long array's footprint drifts past 4x its live entries (s.wLive) it
// is rebuilt densely in literal order — into ping-pong spare buffers,
// so steady-state compaction allocates nothing. All of this happens at
// clause attach, never inside propagate, whose loops hold segment
// offsets. Relocation and compaction copy entries in order, so the
// per-literal watcher order — and therefore the search — is exactly
// that of the slice-based layout.

// seg is one per-literal region of a watcher array.
type seg struct {
	off, len, cap int32
}

// litWatch packs the three watch-list segments of one literal into one
// 64-byte record, so the top of the propagation loop (which needs all
// three) and the watch-move path (which hits the long segment of a
// random literal per move — the hottest access in the solver) each
// touch exactly one cache line per literal. Indexing is a shift, and
// with the backing array allocated 64-byte aligned (Go's allocator
// aligns large allocations), records never straddle lines.
type litWatch struct {
	bin, tri, long seg
	_              [7]int32
}

// watchMinCap is the capacity of a freshly relocated empty segment.
// Capacities are always powers of two, so a vacated block lands in the
// free list of its size class and the next relocation of that size
// reuses it — relocation churn recycles memory in O(1) instead of
// bleeding garbage that only a full compaction could reclaim.
const watchMinCap = 4

// freeClasses bounds the size-class count (2^freeClasses-1 entries is
// far beyond any watch list).
const freeClasses = 28

// capClass returns the free-list class of a power-of-two capacity.
func capClass(c int32) int { return bits.Len32(uint32(c)) - 1 }

// appendBin appends a binary watcher to lit's segment. The in-place
// fast path inlines into the attach sites; growBin relocates.
func (s *Solver) appendBin(lit uint32, w binWatcher) {
	sg := &s.wseg[lit].bin
	if sg.len == sg.cap {
		s.growBin(sg)
	}
	s.bData[sg.off+sg.len] = w
	sg.len++
}

// growSeg relocates a full segment into a free block of doubled
// capacity (or fresh space at the end of data) and recycles the
// vacated block into its size-class free list; it returns the possibly
// reallocated backing array. One generic allocator backs all three
// watcher arenas.
func growSeg[T any](data []T, free *[freeClasses][]int32, sg *seg) []T {
	newCap := sg.cap * 2
	if newCap < watchMinCap {
		newCap = watchMinCap
	}
	var off int32
	if fl := &free[capClass(newCap)]; len(*fl) > 0 {
		off = (*fl)[len(*fl)-1]
		*fl = (*fl)[:len(*fl)-1]
	} else {
		off = int32(len(data))
		// Extend by length only — the block is written before it is
		// read, so no zero-fill; reallocation happens just when the
		// reserved capacity is exhausted.
		if n := len(data) + int(newCap); n <= cap(data) {
			data = data[:n]
		} else {
			data = append(data, make([]T, newCap)...)
		}
	}
	copy(data[off:off+sg.len], data[sg.off:sg.off+sg.len])
	if sg.cap > 0 {
		c := capClass(sg.cap)
		free[c] = append(free[c], sg.off)
	}
	sg.off, sg.cap = off, newCap
	return data
}

// growBin relocates a full binary segment through the shared allocator.
func (s *Solver) growBin(sg *seg) {
	s.bData = growSeg(s.bData, &s.freeB, sg)
}

// appendTri appends a ternary watcher to lit's segment.
func (s *Solver) appendTri(lit uint32, w triWatcher) {
	sg := &s.wseg[lit].tri
	if sg.len == sg.cap {
		s.growTri(sg)
	}
	s.tData[sg.off+sg.len] = w
	sg.len++
}

// growTri is growBin for the ternary array.
func (s *Solver) growTri(sg *seg) {
	s.tData = growSeg(s.tData, &s.freeT, sg)
}

// appendLong appends a long-clause watcher to lit's segment. It is
// called during propagation (watch moves), so it must never move any
// segment other than lit's own — growLong appends to the array end
// and the iterated segment's offset stays valid even if the backing
// array reallocates (the propagation loop reloads its cached array
// after every grow).
func (s *Solver) appendLong(lit uint32, w watcher) {
	sg := &s.wseg[lit].long
	if sg.len == sg.cap {
		s.growLong(sg)
	}
	s.wData[sg.off+sg.len] = w
	sg.len++
	s.wLive++
}

// growLong is growBin for the long-clause array.
func (s *Solver) growLong(sg *seg) {
	s.wData = growSeg(s.wData, &s.freeW, sg)
}

// maybeCompactWatches compacts the long-watcher array when its
// footprint has drifted far from the entries actually in use (s.wLive)
// — churn can park capacity in segments that have since shrunk, which
// free-list recycling alone cannot reclaim. Called from attachClause,
// never inside propagate, whose loops cache segment offsets. The loose
// factor keeps this rare (watch churn under a bounded learnt database
// sits naturally near 3x, so a tighter bound would thrash):
// steady-state reclamation is the free lists' job.
func (s *Solver) maybeCompactWatches() {
	if len(s.wData) > 4*s.wLive+4096 {
		s.compactWatches()
	}
}

// slackCap returns the post-compaction capacity for a list of n
// entries: the smallest power of two (the free-list class invariant)
// giving geometric headroom over n, or zero for empty lists (their
// first append relocates into a fresh minimum block).
func slackCap(n int32) int32 {
	if n == 0 {
		return 0
	}
	c := int32(watchMinCap)
	for c < n+n/4+2 {
		c <<= 1
	}
	return c
}

// compactWatches rebuilds the three watcher arrays densely in literal
// order, preserving each list's entry order (relocation history does
// not affect the search). The rebuild swaps into spare ping-pong
// buffers kept on the solver — compaction allocates nothing once the
// buffers are warm, and slack regions are left uninitialized (they are
// written before they are ever read).
func (s *Solver) compactWatches() {
	bNeed, tNeed, wNeed := 0, 0, 0
	for l := range s.wseg {
		lw := &s.wseg[l]
		bNeed += int(slackCap(lw.bin.len))
		tNeed += int(slackCap(lw.tri.len))
		wNeed += int(slackCap(lw.long.len))
	}
	if cap(s.bSpare) < bNeed {
		s.bSpare = make([]binWatcher, 0, bNeed+bNeed/2)
	}
	if cap(s.tSpare) < tNeed {
		s.tSpare = make([]triWatcher, 0, tNeed+tNeed/2)
	}
	if cap(s.wSpare) < wNeed {
		// The long array keeps extra reserve so segment relocations
		// between compactions extend it without reallocating.
		s.wSpare = make([]watcher, 0, 4*wNeed+4096)
	}
	nb := s.bSpare[:bNeed]
	nt := s.tSpare[:tNeed]
	nw := s.wSpare[:wNeed]
	bOff, tOff, wOff := int32(0), int32(0), int32(0)
	for l := range s.wseg {
		lw := &s.wseg[l]
		sg := &lw.bin
		copy(nb[bOff:], s.bData[sg.off:sg.off+sg.len])
		*sg = seg{off: bOff, len: sg.len, cap: slackCap(sg.len)}
		bOff += sg.cap

		sg = &lw.tri
		copy(nt[tOff:], s.tData[sg.off:sg.off+sg.len])
		*sg = seg{off: tOff, len: sg.len, cap: slackCap(sg.len)}
		tOff += sg.cap

		sg = &lw.long
		copy(nw[wOff:], s.wData[sg.off:sg.off+sg.len])
		*sg = seg{off: wOff, len: sg.len, cap: slackCap(sg.len)}
		wOff += sg.cap
	}
	s.bSpare, s.bData = s.bData[:0], nb
	s.tSpare, s.tData = s.tData[:0], nt
	s.wSpare, s.wData = s.wData[:0], nw
	s.resetFreeLists()
}

// resetWatches empties every watch list and the backing arrays (used by
// the clause-arena compaction, which rebuilds all watchers from the
// surviving clauses).
func (s *Solver) resetWatches() {
	for i := range s.wseg {
		s.wseg[i] = litWatch{}
	}
	s.bData = s.bData[:0]
	s.tData = s.tData[:0]
	s.wData = s.wData[:0]
	s.wLive = 0
	s.resetFreeLists()
}

// resetFreeLists drops every recycled block (the arrays were just
// rebuilt or emptied, so the recorded offsets are stale).
func (s *Solver) resetFreeLists() {
	for i := range s.freeB {
		s.freeB[i] = s.freeB[i][:0]
		s.freeT[i] = s.freeT[i][:0]
		s.freeW[i] = s.freeW[i][:0]
	}
}
