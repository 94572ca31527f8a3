package sat

// Watch lists
//
// Every literal owns three plain Go slices, one per watcher kind:
// wBin (binary clauses), wTri (ternary clauses) and wLong (clauses of
// four or more literals, with blockers). Entries are appended in
// attach order, and propagate drops a moved long watch in place, so a
// list's order is its append order minus the moved entries. compact
// (arena.go) empties every list, keeping its capacity, and re-watches
// the surviving clauses in arena order.

// resetWatches empties every watch list and keeps its capacity (used by
// the clause-arena compaction, which rebuilds all watchers from the
// surviving clauses).
func (s *Solver) resetWatches() {
	for l := range s.wLong {
		s.wBin[l] = s.wBin[l][:0]
		s.wTri[l] = s.wTri[l][:0]
		s.wLong[l] = s.wLong[l][:0]
	}
}
