package atpg

import (
	"math/bits"
	"math/rand/v2"
	"slices"
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

// referenceMergeMinterms is the all-pairs merge MergeMinterms replaced:
// every round compares each pair of cubes, tracked in maps. It is the
// oracle for the neighbour-lookup rewrite.
func referenceMergeMinterms(minterms []uint32, n int) []Cube {
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
		referenceSort(list)
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
				merged[Cube{Value: a.Value &^ diff, Care: a.Care &^ diff}] = true
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
	referenceSort(result)
	var out []Cube
	for i, a := range result {
		sub := false
		for j, b := range result {
			if i == j {
				continue
			}
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

// referenceSort is the insertion sort by (Care, Value) the reference
// merge used.
func referenceSort(cs []Cube) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && (cs[j].Care < cs[j-1].Care || cs[j].Care == cs[j-1].Care && cs[j].Value < cs[j-1].Value); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// randomMinterms draws a minterm list over n variables: each of the 2^n
// minterms is kept with probability density/255, some are repeated,
// some carry junk above bit n (MergeMinterms masks it off), and the
// list is shuffled.
func randomMinterms(rng *rand.Rand, n int, density, dups uint8) []uint32 {
	var ms []uint32
	for m := uint32(0); m < 1<<uint(n); m++ {
		if rng.IntN(255) < int(density) {
			ms = append(ms, m)
		}
	}
	for k := 0; k < int(dups) && len(ms) > 0; k++ {
		m := ms[rng.IntN(len(ms))]
		if k%3 == 0 {
			m |= uint32(rng.IntN(4)) << uint(n)
		}
		ms = append(ms, m)
	}
	rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms
}

func checkMergeMatchesReference(t *testing.T, ms []uint32, n int) {
	t.Helper()
	want := referenceMergeMinterms(slices.Clone(ms), n)
	got := MergeMinterms(slices.Clone(ms), n)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d, %d minterms %v:\n got %v\nwant %v", n, len(ms), ms, got, want)
	}
	masked := make([]uint32, len(ms))
	for i, m := range ms {
		masked[i] = m & (1<<uint(n) - 1)
	}
	if !CoverExact(got, masked, n) {
		t.Fatalf("n=%d: cover %v is not exact for %v", n, got, ms)
	}
}

// TestMergeMintermsMatchesReference: the neighbour-lookup merge returns
// exactly the all-pairs merge's cubes, in the same order, across every
// support size locking uses (n = 0..11) and a spread of densities.
func TestMergeMintermsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	cases := 0
	for n := 0; n <= 11; n++ {
		for _, density := range []uint8{0, 3, 40, 128, 220, 255} {
			for rep := 0; rep < 4; rep++ {
				// The reference is quadratic in the set size; keep the
				// test quick, and quicker still under -short (-race).
				if n >= 10 && (rep > 0 || density > 200) || testing.Short() && n >= 8 && density > 40 {
					continue
				}
				checkMergeMatchesReference(t, randomMinterms(rng, n, density, uint8(rng.IntN(16))), n)
				cases++
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// FuzzMergeMinterms differentially checks MergeMinterms against the
// all-pairs reference on random minterm sets.
func FuzzMergeMinterms(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(128), uint8(2))
	f.Add(uint64(7), uint8(11), uint8(30), uint8(0))
	f.Add(uint64(9), uint8(0), uint8(255), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, density, dups uint8) {
		n := int(nRaw % 12)
		if n >= 10 {
			// The reference needs seconds per near-full set at n = 11.
			density = min(density, 160)
		}
		rng := rand.New(rand.NewPCG(seed, uint64(nRaw)))
		checkMergeMatchesReference(t, randomMinterms(rng, n, density, dups%32), n)
	})
}
