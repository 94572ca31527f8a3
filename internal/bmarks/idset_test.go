package bmarks

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// TestIDSetMatchesSortedSlice drives idSet and a sorted-slice reference
// through the same random adds, deletes (of members and non-members)
// and k-th queries. The set starts with room for 10 IDs and is fed IDs
// up to 5000, so it grows many times along the way.
func TestIDSetMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s := newIDSet(10)
	var ref []netlist.GateID
	check := func(step int) {
		t.Helper()
		if s.len() != len(ref) {
			t.Fatalf("step %d: len %d, reference %d", step, s.len(), len(ref))
		}
		if len(ref) > 0 {
			k := rng.IntN(len(ref))
			if got := s.kth(k); got != ref[k] {
				t.Fatalf("step %d: kth(%d) = %d, reference %d", step, k, got, ref[k])
			}
			if got := s.kth(len(ref) - 1); got != ref[len(ref)-1] {
				t.Fatalf("step %d: largest member %d, reference %d", step, got, ref[len(ref)-1])
			}
		}
	}
	for step := 0; step < 20000; step++ {
		// IDs grow over time, as gates are added, with a bias to
		// recent ones; deletes hit members and non-members alike.
		hi := 64 + step/4
		id := netlist.GateID(rng.IntN(hi))
		if rng.IntN(3) == 0 {
			id = netlist.GateID(hi - 1 - rng.IntN(min(hi, 32)))
		}
		i, found := slices.BinarySearch(ref, id)
		if rng.IntN(2) == 0 {
			s.add(id)
			if !found {
				ref = slices.Insert(ref, i, id)
			}
		} else {
			s.del(id)
			if found {
				ref = slices.Delete(ref, i, i+1)
			}
		}
		check(step)
	}
	if len(ref) == 0 {
		t.Fatal("the reference ended empty; the walk checks little")
	}
	if got := s.members(); !slices.Equal(got, ref) {
		t.Fatalf("members = %v, reference %v", got, ref)
	}
	s.del(1 << 20) // beyond the capacity: a no-op
	for k, id := range ref {
		if got := s.kth(k); got != id {
			t.Fatalf("kth(%d) = %d, reference %d", k, got, id)
		}
	}
}
