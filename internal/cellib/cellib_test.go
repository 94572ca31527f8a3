package cellib

import (
	"testing"

	"repro/internal/netlist"
)

func TestForGateBasics(t *testing.T) {
	nand2 := ForGate(netlist.Nand, 2)
	if nand2.Name != "NAND2_X1" || nand2.Area <= 0 {
		t.Fatalf("NAND2: %+v", nand2)
	}
	// Fanin scaling: NAND4 larger and slower than NAND2.
	nand4 := ForGate(netlist.Nand, 4)
	if nand4.Area <= nand2.Area || nand4.Intrinsic <= nand2.Intrinsic {
		t.Fatalf("NAND4 not scaled: %+v vs %+v", nand4, nand2)
	}
	// NOT does not scale with its single pin.
	if ForGate(netlist.Not, 1) != ForGate(netlist.Not, 1) {
		t.Fatal("INV not stable")
	}
}

func TestTieCellsUnconstrained(t *testing.T) {
	for _, tt := range []netlist.GateType{netlist.TieHi, netlist.TieLo} {
		c := ForGate(tt, 0)
		if !c.Unconstrained {
			t.Fatalf("%v must be load-unconstrained (paper Theorem 1, hint 3)", tt)
		}
		if c.Area <= 0 || c.Area > ForGate(netlist.Not, 1).Area {
			t.Fatalf("TIE area implausible: %v", c.Area)
		}
	}
}

func TestGateDelayMonotonic(t *testing.T) {
	c := ForGate(netlist.Nand, 2)
	if c.GateDelay(10) <= c.GateDelay(1) {
		t.Fatal("delay not monotonic in load")
	}
	if c.GateDelay(0) != c.Intrinsic {
		t.Fatal("unloaded delay must equal intrinsic delay")
	}
}

func TestCircuitAggregates(t *testing.T) {
	c := netlist.New("agg")
	a := c.MustAdd("a", netlist.Input)
	g1 := c.MustAdd("g1", netlist.Nand, a, a)
	g2 := c.MustAdd("g2", netlist.Not, g1)
	c.MustAdd("o", netlist.Output, g2)
	area := Area(c)
	want := ForGate(netlist.Nand, 2).Area + ForGate(netlist.Not, 1).Area
	if area != want {
		t.Fatalf("area %v, want %v (I/O must not count)", area, want)
	}
	// FanoutCap of net a: g1 reads it twice.
	if got := FanoutCap(c, a); got != 2*ForGate(netlist.Nand, 2).InputCap {
		t.Fatalf("fanout cap %v", got)
	}
}

func TestUnknownTypeGraceful(t *testing.T) {
	if c := ForGate(netlist.GateType(200), 2); c.Name != "UNKNOWN" {
		t.Fatalf("unexpected cell for bogus type: %+v", c)
	}
}
