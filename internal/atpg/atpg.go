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
	"math/bits"

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
func MergeMinterms(minterms []uint32, n int) []Cube {
	fullCare := uint32(1<<uint(n)) - 1
	if n == 0 {
		fullCare = 0
	}
	cur := make(map[Cube]bool, len(minterms))
	for _, m := range minterms {
		cur[Cube{Value: m & fullCare, Care: fullCare}] = true
	}
	var result []Cube
	for len(cur) > 0 {
		merged := make(map[Cube]bool)
		used := make(map[Cube]bool)
		list := make([]Cube, 0, len(cur))
		for cu := range cur {
			list = append(list, cu)
		}
		// Deterministic order for reproducibility.
		sortCubes(list)
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.Care != b.Care {
					continue
				}
				diff := (a.Value ^ b.Value) & a.Care
				if bits.OnesCount32(diff) != 1 {
					continue
				}
				nc := Cube{Value: a.Value &^ diff, Care: a.Care &^ diff}
				merged[nc] = true
				used[a] = true
				used[b] = true
			}
		}
		for _, cu := range list {
			if !used[cu] {
				result = append(result, cu)
			}
		}
		cur = merged
	}
	// Drop cubes subsumed by larger ones (same cover, fewer key bits).
	return pruneSubsumed(result)
}

func pruneSubsumed(cubes []Cube) []Cube {
	sortCubes(cubes)
	var out []Cube
	for i, a := range cubes {
		sub := false
		for j, b := range cubes {
			if i == j {
				continue
			}
			// b subsumes a when b's constraints are a subset of a's
			// and agree on values.
			if b.Care&^a.Care == 0 && (a.Value^b.Value)&b.Care == 0 {
				if b.Care != a.Care || j < i {
					sub = true
					break
				}
			}
		}
		if !sub {
			out = append(out, a)
		}
	}
	return out
}

func sortCubes(cs []Cube) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cubeLess(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func cubeLess(a, b Cube) bool {
	if a.Care != b.Care {
		return a.Care < b.Care
	}
	return a.Value < b.Value
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
