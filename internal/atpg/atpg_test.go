package atpg

import (
	"testing"
	"testing/quick"
)

func TestMergeMintermsFullSpace(t *testing.T) {
	// All 8 minterms over 3 vars merge to the universal cube.
	var minterms []uint32
	for m := uint32(0); m < 8; m++ {
		minterms = append(minterms, m)
	}
	cubes := MergeMinterms(minterms, 3)
	if len(cubes) != 1 || cubes[0].Care != 0 {
		t.Fatalf("full space cubes = %+v, want single don't-care cube", cubes)
	}
}

func TestMergeMintermsProperty(t *testing.T) {
	// Property: for random minterm sets, the merged cover is exact.
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw%5) + 2 // 2..6 vars
		mask := uint32(1<<uint(n)) - 1
		set := make(map[uint32]bool)
		for _, r := range raw {
			set[uint32(r)&mask] = true
		}
		var minterms []uint32
		for m := range set {
			minterms = append(minterms, m)
		}
		if len(minterms) == 0 {
			return true
		}
		cubes := MergeMinterms(minterms, n)
		return CoverExact(cubes, minterms, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeReducesKeyBits(t *testing.T) {
	// {000, 001} merges into 00- : 2 key bits instead of 6.
	cubes := MergeMinterms([]uint32{0, 4}, 3) // differ in bit 2
	if len(cubes) != 1 {
		t.Fatalf("cubes = %+v", cubes)
	}
	if cubes[0].Bits() != 2 {
		t.Fatalf("merged cube bits = %d, want 2", cubes[0].Bits())
	}
}

func TestCubeContains(t *testing.T) {
	cu := Cube{Value: 0b101, Care: 0b111}
	if !cu.Contains(0b101) || cu.Contains(0b100) {
		t.Fatal("Contains broken for full-care cube")
	}
	cu = Cube{Value: 0b001, Care: 0b011}
	if !cu.Contains(0b101) || !cu.Contains(0b001) || cu.Contains(0b010) {
		t.Fatal("Contains broken for partial-care cube")
	}
	if cu.Bits() != 2 {
		t.Fatalf("partial-care cube has %d bits, want 2", cu.Bits())
	}
}
