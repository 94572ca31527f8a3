package locking

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bmarks"
	"repro/internal/netlist"
)

// analysisScratch returns c's topological order plus the topoPos and
// net-buffer arguments that region analysis takes.
func analysisScratch(t *testing.T, c *netlist.Circuit) (order []netlist.GateID, topoPos []int32, nets []uint64) {
	t.Helper()
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	topoPos = make([]int32, c.NumIDs())
	for i := range topoPos {
		topoPos[i] = -1
	}
	for i, id := range order {
		topoPos[id] = int32(i)
	}
	return order, topoPos, make([]uint64, c.NumIDs())
}

// TestBackwardKeyBitsMatchesFullAnalysis pins the pre-check that lets
// analyzeRegion reject a candidate before its forward growth: for every
// fault of a few circuits, the key bits computed over the backward
// region equal the key bits of the fully analyzed region whenever that
// analysis yields one, so the pre-check never rejects a region the full
// analysis would keep within the budget.
func TestBackwardKeyBitsMatchesFullAnalysis(t *testing.T) {
	b14, err := bmarks.Load("b14", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*netlist.Circuit{b14, genCircuit(t, 300, 5), genCircuit(t, 600, 11)}
	ropt := lockRegionOptions()
	var kept, rejected int
	for _, c := range circuits {
		order, topoPos, nets := analysisScratch(t, c)
		for _, id := range order {
			g := c.Gate(id)
			if g.Type.IsSource() || g.Type == netlist.Output || g.DontTouch {
				continue
			}
			for _, sa := range []bool{false, true} {
				f := atpg.Fault{Net: id, StuckAt: sa}
				regionSet, backSupport := growBackward(c, id, ropt)
				if regionSet == nil {
					continue
				}
				kb := backwardKeyBits(c, f, regionSet, backSupport, ropt, topoPos, nets)
				r := analyzeGrown(c, f, ropt, regionSet, topoPos, nets)
				if r == nil {
					if kb <= 0 {
						rejected++
					}
					continue
				}
				kept++
				if kb != r.keyBits {
					t.Fatalf("%s: fault %d/sa%v: backward key bits %d, full analysis %d", c.Name, id, sa, kb, r.keyBits)
				}
			}
		}
	}
	if kept == 0 || rejected == 0 {
		t.Fatalf("no coverage: %d regions kept, %d rejected by the pre-check", kept, rejected)
	}
	t.Logf("%d regions kept with matching key bits, %d rejected by the pre-check", kept, rejected)
}

func c17(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(`
INPUT(I1)
INPUT(I2)
INPUT(I3)
INPUT(I4)
INPUT(I5)
OUTPUT(U12)
OUTPUT(U13)
U8 = NAND(I1, I3)
U9 = NAND(I3, I4)
U10 = NAND(I2, U9)
U11 = NAND(U9, I5)
U12 = NAND(U8, U10)
U13 = NAND(U10, U11)
`, "c17")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cubeLiterals renders a region's activation cubes as support-name
// literals, e.g. "I1=1 I3=1", in cube order.
func cubeLiterals(c *netlist.Circuit, r *region) []string {
	var out []string
	for _, cu := range r.actCubes {
		var lits []string
		for j, s := range r.support {
			if cu.Care>>uint(j)&1 == 1 {
				lits = append(lits, fmt.Sprintf("%s=%d", c.Gate(s).Name, cu.Value>>uint(j)&1))
			}
		}
		out = append(out, strings.Join(lits, " "))
	}
	return out
}

// TestRegionActivationNANDStuck: the failing patterns of a stuck-at
// fault on U8 = NAND(I1, I3) are the support assignments where U8
// computes the complement of the stuck value, merged into cubes.
func TestRegionActivationNANDStuck(t *testing.T) {
	c := c17(t)
	u8 := c.GateByName("U8")
	ropt := lockRegionOptions()
	_, topoPos, nets := analysisScratch(t, c)
	for _, tc := range []struct {
		sa   bool
		want []string
	}{
		// sa1 fails only where U8 = 0, i.e. I1 = I3 = 1: one cube.
		{true, []string{"I1=1 I3=1"}},
		// sa0 fails on the three other minterms: ¬I1 + ¬I3.
		{false, []string{"I1=0", "I3=0"}},
	} {
		r := analyzeRegion(c, atpg.Fault{Net: u8, StuckAt: tc.sa}, ropt, 64, topoPos, nets)
		if r == nil {
			t.Fatalf("sa%v: region rejected", tc.sa)
		}
		got := cubeLiterals(c, r)
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("sa%v: activation cubes %q, want %q", tc.sa, got, tc.want)
		}
		if r.keyBits != 2 {
			t.Errorf("sa%v: %d key bits, want 2", tc.sa, r.keyBits)
		}
	}
}

// TestRegionRejections: faults on sources, regions whose cut exceeds
// MaxSupport and activation sets above MaxActOnSet are rejected.
func TestRegionRejections(t *testing.T) {
	c := c17(t)
	ropt := lockRegionOptions()
	_, topoPos, nets := analysisScratch(t, c)
	analyze := func(name string, sa bool, opt regionOptions) *region {
		return analyzeRegion(c, atpg.Fault{Net: c.GateByName(name), StuckAt: sa}, opt, 64, topoPos, nets)
	}
	if analyze("I1", true, ropt) != nil {
		t.Fatal("fault on a primary input accepted")
	}
	if analyze("U12", false, ropt) == nil {
		t.Fatal("U12/sa0 rejected under the default bounds")
	}
	narrow := ropt
	narrow.MaxSupport = 1
	if analyze("U12", false, narrow) != nil {
		t.Fatal("support bound not enforced")
	}
	small := ropt
	small.MaxActOnSet = 1
	if analyze("U12", false, small) != nil {
		t.Fatal("activation on-set bound not enforced")
	}
}

// TestRedundantConstantNetRejected: z = AND(a, ¬a) is constant 0, so
// z stuck-at-0 never fails (no activation pattern) and z stuck-at-1
// fails on every pattern (a cube with no key bit). Neither is a region.
func TestRedundantConstantNetRejected(t *testing.T) {
	c := netlist.New("const")
	a := c.MustAdd("a", netlist.Input)
	na := c.MustAdd("na", netlist.Not, a)
	z := c.MustAdd("z", netlist.And, a, na)
	c.MustAdd("o", netlist.Output, z)
	ropt := lockRegionOptions()
	_, topoPos, nets := analysisScratch(t, c)
	for _, tc := range []struct {
		sa     bool
		keyBit int
	}{{false, -1}, {true, 0}} {
		f := atpg.Fault{Net: z, StuckAt: tc.sa}
		regionSet, support := growBackward(c, z, ropt)
		if regionSet == nil {
			t.Fatalf("sa%v: no backward region", tc.sa)
		}
		if kb := backwardKeyBits(c, f, regionSet, support, ropt, topoPos, nets); kb != tc.keyBit {
			t.Errorf("sa%v: backward key bits %d, want %d", tc.sa, kb, tc.keyBit)
		}
		if analyzeRegion(c, f, ropt, 64, topoPos, nets) != nil {
			t.Errorf("sa%v: redundant fault accepted", tc.sa)
		}
	}
}
