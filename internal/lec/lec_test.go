package lec

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/netlist"
)

func mustParse(t *testing.T, src, name string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const c17Src = `
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
`

// c17DeMorgan re-expresses c17 with AND/NOT structure (De Morgan),
// functionally identical.
const c17DeMorgan = `
INPUT(I1)
INPUT(I2)
INPUT(I3)
INPUT(I4)
INPUT(I5)
OUTPUT(U12)
OUTPUT(U13)
A8 = AND(I1, I3)
U8 = NOT(A8)
A9 = AND(I3, I4)
U9 = NOT(A9)
A10 = AND(I2, U9)
U10 = NOT(A10)
A11 = AND(U9, I5)
U11 = NOT(A11)
A12 = AND(U8, U10)
U12 = NOT(A12)
A13 = AND(U10, U11)
U13 = NOT(A13)
`

func TestEquivalentRestructured(t *testing.T) {
	a := mustParse(t, c17Src, "c17")
	b := mustParse(t, c17DeMorgan, "c17dm")
	for _, opt := range []Options{{}, {PrefilterPatterns: -1}} {
		res, err := Check(a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("restructured c17 reported non-equivalent (opt %+v, cex %v)", opt, res.Counterexample)
		}
		if opt.PrefilterPatterns == -1 && !res.UsedSAT {
			t.Error("SAT path not exercised when prefilter disabled")
		}
	}
}

func TestNonEquivalentDetected(t *testing.T) {
	a := mustParse(t, c17Src, "c17")
	b := a.Clone()
	b.Gate(b.GateByName("U13")).Type = netlist.And
	// Disable the prefilter to force the SAT path and get a model.
	res, err := Check(a, b, Options{PrefilterPatterns: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("modified circuit reported equivalent")
	}
	if res.Counterexample == nil {
		t.Fatal("SAT path must produce a counterexample")
	}
	// Verify the counterexample distinguishes the circuits.
	eval := func(c *netlist.Circuit) []bool {
		vals := make(map[netlist.GateID]bool)
		order, _ := c.TopoOrder()
		for _, id := range order {
			g := c.Gate(id)
			switch g.Type {
			case netlist.Input:
				vals[id] = res.Counterexample[g.Name]
			case netlist.Nand:
				v := true
				for _, f := range g.Fanin {
					v = v && vals[f]
				}
				vals[id] = !v
			case netlist.And:
				v := true
				for _, f := range g.Fanin {
					v = v && vals[f]
				}
				vals[id] = v
			case netlist.Output:
				vals[id] = vals[g.Fanin[0]]
			}
		}
		outs := make([]bool, len(c.Outputs()))
		for i, o := range c.Outputs() {
			outs[i] = vals[o]
		}
		return outs
	}
	oa, ob := eval(a), eval(b)
	differ := false
	for i := range oa {
		if oa[i] != ob[i] {
			differ = true
		}
	}
	if !differ {
		t.Fatalf("counterexample %v does not distinguish circuits", res.Counterexample)
	}
}

// TestPortfolioCheck runs the checker with portfolio backends over
// both verdict directions: an equivalent restructured pair (UNSAT
// miters) and a corrupted clone (SAT miter with a counterexample). The
// verdicts must match the single-solver path for every worker count;
// only which counterexample is found may differ.
// TestCheckCancelled: with the stop flag already raised, Check must
// return ErrCancelled rather than a verdict, both when the stop hits the
// simulation prefilter and when it hits the sweep and SAT path.
func TestCheckCancelled(t *testing.T) {
	a := mustParse(t, c17Src, "c17")
	b := a.Clone()
	b.Gate(b.GateByName("U13")).Type = netlist.And
	for _, tc := range []struct {
		name     string
		patterns int
	}{{"prefilter", 0}, {"sweep+SAT", -1}} {
		var stop atomic.Bool
		stop.Store(true)
		res, err := Check(a, b, Options{PrefilterPatterns: tc.patterns, Stop: &stop})
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("%s: got (%+v, %v), want ErrCancelled", tc.name, res, err)
		}
	}
}

func TestPortfolioCheck(t *testing.T) {
	a := mustParse(t, c17Src, "c17")
	b := mustParse(t, c17DeMorgan, "c17dm")
	bad := a.Clone()
	bad.Gate(bad.GateByName("U13")).Type = netlist.And
	for _, workers := range []int{2, 4} {
		opt := Options{PrefilterPatterns: -1, PortfolioWorkers: workers}
		res, err := Check(a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatalf("workers=%d: equivalent pair rejected", workers)
		}
		res, err = Check(a, bad, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Equivalent {
			t.Fatalf("workers=%d: corrupted clone reported equivalent", workers)
		}
		if res.Counterexample == nil {
			t.Fatalf("workers=%d: SAT path must produce a counterexample", workers)
		}
	}
}

func TestPrefilterCatchesGrossDifference(t *testing.T) {
	a := mustParse(t, c17Src, "c17")
	b := a.Clone()
	// Invert an output: every pattern differs — prefilter must catch it.
	o := b.Outputs()[0]
	inv := b.MustAdd("inv", netlist.Not, b.Gate(o).Fanin[0])
	if err := b.SetFanin(o, 0, inv); err != nil {
		t.Fatal(err)
	}
	res, err := Check(a, b, Options{PrefilterPatterns: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("inverted output reported equivalent")
	}
	if res.UsedSAT {
		t.Error("prefilter should have decided without SAT")
	}
}

func TestSequentialEquivalence(t *testing.T) {
	seq := `
INPUT(d)
OUTPUT(q)
q = DFF(nd)
nd = NOT(d)
`
	seqEq := `
INPUT(d)
OUTPUT(q)
q = DFF(nd)
x = NAND(d, d)
nd = BUF(x)
`
	seqNe := `
INPUT(d)
OUTPUT(q)
q = DFF(nd)
nd = BUF(d)
`
	a := mustParse(t, seq, "seq")
	b := mustParse(t, seqEq, "seqEq")
	c := mustParse(t, seqNe, "seqNe")
	res, err := Check(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("equivalent sequential designs rejected")
	}
	res, err = Check(a, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("non-equivalent sequential designs accepted")
	}
}

func TestTieCellsAndKeyGates(t *testing.T) {
	// A locked variant of a buffer: out = XOR(in, TIELO) ≡ in, and
	// out = XNOR(in, TIEHI) ≡ in.
	a := mustParse(t, "INPUT(x)\nOUTPUT(y)\ny = BUF(x)\n", "plain")
	locked := `
INPUT(x)
OUTPUT(y)
k0 = TIELO
y = XOR(x, k0)
`
	b := mustParse(t, locked, "locked")
	res, err := Check(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("XOR with TIELO not equivalent to BUF")
	}
	wrong := `
INPUT(x)
OUTPUT(y)
k0 = TIEHI
y = XOR(x, k0)
`
	w := mustParse(t, wrong, "wrongkey")
	res, err = Check(a, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("XOR with TIEHI (wrong key) reported equivalent")
	}
}

func TestAllGateTypesEncode(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(s)
OUTPUT(o)
g1 = AND(a, b, s)
g2 = NAND(a, b, s)
g3 = OR(a, b, s)
g4 = NOR(a, b, s)
g5 = XOR(a, b, s)
g6 = XNOR(a, b, s)
g7 = MUX(s, g1, g2)
g8 = NOT(g3)
g9 = BUF(g4)
o = AND(g5, g6, g7, g8, g9)
`
	a := mustParse(t, src, "types")
	res, err := Check(a, a.Clone(), Options{PrefilterPatterns: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("circuit not equivalent to its clone via SAT")
	}
}
