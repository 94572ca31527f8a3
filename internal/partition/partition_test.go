package partition

import (
	"testing"

	"repro/internal/bmarks"
	"repro/internal/netlist"
)

func TestRandomBalanced(t *testing.T) {
	c, err := bmarks.Generate(bmarks.Spec{Name: "p", Inputs: 16, Outputs: 8, Gates: 500, DFFs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mods, err := RandomBalanced(c, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 8 {
		t.Fatalf("module count = %d", len(mods))
	}
	lo, hi := len(mods[0].Gates), len(mods[0].Gates)
	for _, m := range mods {
		lo, hi = min(lo, len(m.Gates)), max(hi, len(m.Gates))
	}
	if hi-lo > 1 {
		t.Fatalf("imbalanced partition: module sizes %d to %d", lo, hi)
	}
	seen := make(map[netlist.GateID]bool)
	total := 0
	for _, m := range mods {
		for _, id := range m.Gates {
			if seen[id] {
				t.Fatalf("gate %d in two modules", id)
			}
			seen[id] = true
			g := c.Gate(id)
			if g.Type.IsSource() || g.Type == netlist.Output {
				t.Fatalf("pseudo/source gate %v partitioned", g.Type)
			}
			total++
		}
	}
	if total != c.ComputeStats().Gates {
		t.Fatalf("partition covers %d gates, circuit has %d", total, c.ComputeStats().Gates)
	}
}

func TestRandomBalancedDeterministic(t *testing.T) {
	c, err := bmarks.Generate(bmarks.Spec{Name: "p", Inputs: 8, Outputs: 4, Gates: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := RandomBalanced(c, 4, 7)
	b, _ := RandomBalanced(c, 4, 7)
	for i := range a {
		if len(a[i].Gates) != len(b[i].Gates) {
			t.Fatal("same seed, different partitions")
		}
		for j := range a[i].Gates {
			if a[i].Gates[j] != b[i].Gates[j] {
				t.Fatal("same seed, different gate assignment")
			}
		}
	}
}

func TestMoreModulesThanGates(t *testing.T) {
	c := netlist.New("tiny")
	a := c.MustAdd("a", netlist.Input)
	g := c.MustAdd("g", netlist.Not, a)
	c.MustAdd("o", netlist.Output, g)
	mods, err := RandomBalanced(c, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 {
		t.Fatalf("expected clamping to 1 module, got %d", len(mods))
	}
	if _, err := RandomBalanced(c, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestDontTouchExcluded(t *testing.T) {
	c := netlist.New("dt")
	a := c.MustAdd("a", netlist.Input)
	g1 := c.MustAdd("g1", netlist.Not, a)
	g2 := c.MustAdd("g2", netlist.Not, g1)
	c.Gate(g2).DontTouch = true
	c.MustAdd("o", netlist.Output, g2)
	mods, err := RandomBalanced(c, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		for _, id := range m.Gates {
			if id == g2 {
				t.Fatal("DontTouch gate partitioned")
			}
		}
	}
}
