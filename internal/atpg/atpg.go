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
// Each round keeps its cubes sorted and deduplicated, so a cube's merge
// partners — the same cube with one care bit flipped from 0 to 1 — are
// found by binary search: O(L·n·log L) per round instead of comparing
// all L² pairs. A round packs each cube into one word, Care above
// Value, which orders the words exactly as compareCubes orders cubes.
func MergeMinterms(minterms []uint32, n int) []Cube {
	fullCare := uint32(1<<uint(n)) - 1
	if n == 0 {
		fullCare = 0
	}
	cur := make([]uint64, len(minterms))
	for i, m := range minterms {
		cur[i] = packCube(Cube{Value: m & fullCare, Care: fullCare})
	}
	var next []uint64
	var result []Cube
	var used []bool
	for len(cur) > 0 {
		slices.Sort(cur)
		cur = slices.Compact(cur)
		used = append(used[:0], make([]bool, len(cur))...)
		next = next[:0]
		for i, k := range cur {
			a := unpackCube(k)
			// A cube's Value lies inside its Care, so the care bits at
			// 0 are Care &^ Value; the partner sets one of them and
			// sorts after a.
			for zeros := a.Care &^ a.Value; zeros != 0; zeros &= zeros - 1 {
				bit := zeros & -zeros
				if j, ok := slices.BinarySearch(cur[i+1:], k|uint64(bit)); ok {
					next = append(next, k&^(uint64(bit)<<32))
					used[i] = true
					used[i+1+j] = true
				}
			}
		}
		for i, k := range cur {
			if !used[i] {
				result = append(result, unpackCube(k))
			}
		}
		cur, next = next, cur
	}
	// Drop cubes subsumed by larger ones (same cover, fewer key bits).
	return pruneSubsumed(result)
}

func packCube(cu Cube) uint64  { return uint64(cu.Care)<<32 | uint64(cu.Value) }
func unpackCube(k uint64) Cube { return Cube{Value: uint32(k), Care: uint32(k >> 32)} }

func pruneSubsumed(cubes []Cube) []Cube {
	slices.SortFunc(cubes, compareCubes)
	var out []Cube
	for i, a := range cubes {
		sub := false
		// b subsumes a when b's constraints are a subset of a's and
		// agree on values. A subset Care is numerically no larger, and
		// the cubes are distinct, so only earlier cubes can subsume.
		for _, b := range cubes[:i] {
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
