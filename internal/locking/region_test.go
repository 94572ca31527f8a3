package locking

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/bmarks"
	"repro/internal/netlist"
)

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
	ropt := regionOptionsFor(ATPGLockOptions{}.withDefaults())
	var kept, rejected int
	for _, c := range circuits {
		order, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		topoPos := make([]int32, c.NumIDs())
		for i := range topoPos {
			topoPos[i] = -1
		}
		for i, id := range order {
			topoPos[id] = int32(i)
		}
		nets := make([]uint64, c.NumIDs())
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
