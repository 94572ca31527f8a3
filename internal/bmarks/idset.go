package bmarks

import (
	"math/bits"

	"repro/internal/netlist"
)

// idSet is an ordered set of gate IDs: a bitset plus a Fenwick tree
// over the popcounts of its words. Adding, deleting and finding the
// k-th smallest member each cost O(log n), where a map would need a
// sort of every member to find the k-th.
type idSet struct {
	words []uint64
	// tree[i] (1-based) is the member count of words (i&(i-1)), i].
	tree []int
	n    int
}

// newIDSet returns an empty set with room for IDs below capacity; it
// grows past that as IDs are added.
func newIDSet(capacity int) *idSet {
	s := &idSet{}
	s.grow(max(capacity, 1))
	return s
}

// grow resizes the set to hold IDs below at least capacity, doubling
// so that adding ascending IDs rebuilds the tree O(log n) times.
func (s *idSet) grow(capacity int) {
	nw := max((capacity+63)/64, 2*len(s.words))
	words := make([]uint64, nw)
	copy(words, s.words)
	s.words = words
	s.tree = make([]int, nw+1)
	for i, w := range words {
		s.tree[i+1] += bits.OnesCount64(w)
		if j := (i + 1) + (i+1)&-(i+1); j <= nw {
			s.tree[j] += s.tree[i+1]
		}
	}
}

// bump adds d to the member count of word w.
func (s *idSet) bump(w, d int) {
	for i := w + 1; i < len(s.tree); i += i & -i {
		s.tree[i] += d
	}
}

func (s *idSet) len() int { return s.n }

func (s *idSet) add(id netlist.GateID) {
	w, b := int(id)/64, uint(id)%64
	if w >= len(s.words) {
		s.grow(int(id) + 1)
	}
	if s.words[w]&(1<<b) != 0 {
		return
	}
	s.words[w] |= 1 << b
	s.n++
	s.bump(w, 1)
}

// del removes id; deleting a non-member does nothing.
func (s *idSet) del(id netlist.GateID) {
	w, b := int(id)/64, uint(id)%64
	if w >= len(s.words) || s.words[w]&(1<<b) == 0 {
		return
	}
	s.words[w] &^= 1 << b
	s.n--
	s.bump(w, -1)
}

// kth returns the k-th smallest member (0-based); k must be below len.
func (s *idSet) kth(k int) netlist.GateID {
	// Descend the tree to the word holding the member, skipping whole
	// subtrees whose count is at most the rank still to skip.
	w := 0
	for step := 1 << (bits.Len(uint(len(s.words))) - 1); step > 0; step >>= 1 {
		if next := w + step; next < len(s.tree) && s.tree[next] <= k {
			w = next
			k -= s.tree[next]
		}
	}
	word := s.words[w]
	for ; k > 0; k-- {
		word &= word - 1
	}
	return netlist.GateID(w*64 + bits.TrailingZeros64(word))
}

// members returns every member in ascending order.
func (s *idSet) members() []netlist.GateID {
	out := make([]netlist.GateID, 0, s.n)
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, netlist.GateID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}
