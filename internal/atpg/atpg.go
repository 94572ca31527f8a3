// Package atpg provides the fault model and cube merging behind the
// Fig. 3 synthesis stage. A stuck-at-v fault at net n makes the circuit
// behave as if n were constant v. Relative to a support cut through
// n's fanin cone, the fault's failing (activation) patterns are exactly
// the support assignments under which n computes ¬v — the patterns the
// paper obtains from Atalanta-M. Locking enumerates them over a region
// around n (internal/locking), and MergeMinterms turns them into the
// compact cube cover that the keyed comparator recognizes: the locking
// scheme removes the region, ties n to v, and restores ¬v wherever the
// comparator matches.
package atpg

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/netlist"
)

// Fault is a single stuck-at fault on the net driven by Net.
type Fault struct {
	Net     netlist.GateID
	StuckAt bool // the stuck value v
}

// Cube is a partial assignment over an ordered support: bit i of Care
// selects whether support signal i is constrained, bit i of Value gives
// the required value. Cubes come from merging activation minterms.
type Cube struct {
	Value uint32
	Care  uint32
}

// Bits returns the number of constrained positions (the number of key
// bits the cube's comparator consumes).
func (cu Cube) Bits() int { return bits.OnesCount32(cu.Care) }

// Contains reports whether minterm m lies inside the cube.
func (cu Cube) Contains(m uint32) bool { return m&cu.Care == cu.Value&cu.Care }

// MergeMinterms performs Quine–McCluskey-style cube merging on a
// minterm list over n variables. The result is an exact cover: the
// union of the returned cubes equals the input set. (Primes that
// participated in a merge are dropped; the merged cube covers them.)
//
// Each round indexes its cubes in a hash table, so a cube's merge
// partners — the same cube with one care bit flipped from 0 to 1 — are
// found in O(1): O(L·n) per round instead of comparing all L² pairs.
// A merged cube is emitted only by the pair split along its lowest
// don't-care bit, so each round's cubes come out distinct without a
// sort. A round packs each cube into one word, Care above Value, which
// orders the words exactly as compareCubes orders cubes.
func MergeMinterms(minterms []uint32, n int) []Cube {
	var mg Merger
	return mg.Merge(minterms, n)
}

// Merger is MergeMinterms with its working buffers kept from one call
// to the next, for callers that merge many small minterm sets. The
// zero Merger is ready to use.
type Merger struct {
	cur, next []uint64
	used      []bool
	// table is the open-addressing index of cur: each slot holds a
	// position in cur plus one, or 0 when empty.
	table  []int32
	result []Cube
}

// Merge returns MergeMinterms(minterms, n). The result is owned by the
// Merger and valid until its next Merge.
func (mg *Merger) Merge(minterms []uint32, n int) []Cube {
	fullCare := uint32(1<<uint(n)) - 1
	if n == 0 {
		fullCare = 0
	}
	cur, next := mg.cur[:0], mg.next[:0]
	mg.index(len(minterms))
	for _, m := range minterms {
		if k := packCube(Cube{Value: m & fullCare, Care: fullCare}); mg.find(cur, k) < 0 {
			cur = append(cur, k)
			mg.insert(k, len(cur)-1)
		}
	}
	result := mg.result[:0]
	for len(cur) > 0 {
		mg.used = slices.Grow(mg.used[:0], len(cur))[:len(cur)]
		clear(mg.used)
		next = next[:0]
		for i, k := range cur {
			a := unpackCube(k)
			dc := fullCare &^ a.Care
			// A cube's Value lies inside its Care, so the care bits at
			// 0 are Care &^ Value; the partner sets one of them.
			for zeros := a.Care &^ a.Value; zeros != 0; zeros &= zeros - 1 {
				bit := zeros & -zeros
				if j := mg.find(cur, k|uint64(bit)); j >= 0 {
					if dc == 0 || bit < dc&-dc {
						next = append(next, k&^(uint64(bit)<<32))
					}
					mg.used[i] = true
					mg.used[j] = true
				}
			}
		}
		for i, k := range cur {
			if !mg.used[i] {
				result = append(result, unpackCube(k))
			}
		}
		cur, next = next, cur
		mg.index(len(cur))
		for i, k := range cur {
			mg.insert(k, i)
		}
	}
	mg.cur, mg.next = cur, next
	// Drop cubes subsumed by larger ones (same cover, fewer key bits).
	mg.result = pruneSubsumed(result)
	return mg.result
}

// index empties the hash table and sizes it for n cubes.
func (mg *Merger) index(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(mg.table) < size {
		mg.table = make([]int32, size)
	}
	mg.table = mg.table[:size]
	clear(mg.table)
}

func (mg *Merger) slot(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> 32 & uint64(len(mg.table)-1))
}

// insert records that cube word k sits at position i of the indexed
// round.
func (mg *Merger) insert(k uint64, i int) {
	h := mg.slot(k)
	for mg.table[h] != 0 {
		h = (h + 1) & (len(mg.table) - 1)
	}
	mg.table[h] = int32(i + 1)
}

// find returns the position of cube word k in the indexed round cur,
// or -1.
func (mg *Merger) find(cur []uint64, k uint64) int {
	for h := mg.slot(k); mg.table[h] != 0; h = (h + 1) & (len(mg.table) - 1) {
		if i := int(mg.table[h] - 1); cur[i] == k {
			return i
		}
	}
	return -1
}

func packCube(cu Cube) uint64  { return uint64(cu.Care)<<32 | uint64(cu.Value) }
func unpackCube(k uint64) Cube { return Cube{Value: uint32(k), Care: uint32(k >> 32)} }

// pruneSubsumed sorts cubes and drops, in place, every cube another
// one subsumes.
func pruneSubsumed(cubes []Cube) []Cube {
	slices.SortFunc(cubes, compareCubes)
	out := cubes[:0]
	for _, a := range cubes {
		sub := false
		// b subsumes a when b's constraints are a subset of a's and
		// agree on values. A subset Care is numerically no larger, and
		// the cubes are distinct, so only earlier cubes can subsume;
		// and subsumption is transitive, so checking the earlier cubes
		// that were kept suffices.
		for _, b := range out {
			if b.Care&^a.Care == 0 && (a.Value^b.Value)&b.Care == 0 {
				sub = true
				break
			}
		}
		if !sub {
			out = append(out, a)
		}
	}
	return out
}

// compareCubes orders cubes by Care, then Value.
func compareCubes(a, b Cube) int {
	if c := cmp.Compare(a.Care, b.Care); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// CoverExact verifies that the cube list covers exactly the given
// minterm set over n variables; tests use it as the oracle for
// MergeMinterms.
func CoverExact(cubes []Cube, minterms []uint32, n int) bool {
	want := make(map[uint32]bool, len(minterms))
	for _, m := range minterms {
		want[m] = true
	}
	for m := uint32(0); m < uint32(1)<<uint(n); m++ {
		in := false
		for _, cu := range cubes {
			if cu.Contains(m) {
				in = true
				break
			}
		}
		if in != want[m] {
			return false
		}
	}
	return true
}
