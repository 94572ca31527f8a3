package lec

import (
	"fmt"
	"testing"

	"repro/internal/aig"
	"repro/internal/bmarks"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sim"
)

// metamorphicSubjects yields a spread of generated and benchmark
// circuits (combinational and sequential) for the metamorphic
// relations below.
func metamorphicSubjects(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var cs []*netlist.Circuit
	for i, spec := range []bmarks.Spec{
		{Name: "meta0", Inputs: 8, Outputs: 4, Gates: 120, Seed: 21},
		{Name: "meta1", Inputs: 14, Outputs: 7, Gates: 350, Seed: 22},
	} {
		c, err := bmarks.Generate(spec)
		if err != nil {
			t.Fatalf("subject %d: %v", i, err)
		}
		cs = append(cs, c)
	}
	b14, err := bmarks.Load("b14", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, b14)
	return cs
}

// TestMetamorphicSelfEquivalence: every circuit is LEC-equivalent to
// its own clone.
func TestMetamorphicSelfEquivalence(t *testing.T) {
	for i, c := range metamorphicSubjects(t) {
		res, err := Check(c, c.Clone(), Options{PrefilterPatterns: -1})
		if err != nil {
			t.Fatalf("subject %d: %v", i, err)
		}
		if !res.Equivalent {
			t.Fatalf("subject %d: circuit not equivalent to its clone", i)
		}
	}
}

// TestMetamorphicAIGRoundTrip: every circuit is LEC-equivalent to its
// AIG round trip (netlist → strashed graph → AND/NOT netlist).
func TestMetamorphicAIGRoundTrip(t *testing.T) {
	for i, c := range metamorphicSubjects(t) {
		g, m, err := aig.FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := aig.ToCircuit(g, c, m, fmt.Sprintf("%s_rt", c.Name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(c, rt, Options{PrefilterPatterns: -1})
		if err != nil {
			t.Fatalf("subject %d: %v", i, err)
		}
		if !res.Equivalent {
			t.Fatalf("subject %d: AIG round trip not equivalent (cex %v)", i, res.Counterexample)
		}
		// The round trip re-enters the same builder shapes, so the
		// whole proof must be structural: no observable pair may need
		// a SAT call.
		if res.Stats.SATPairs != 0 {
			t.Errorf("subject %d: %d observable pairs needed SAT on a pure round trip", i, res.Stats.SATPairs)
		}
	}
}

// TestMetamorphicDoubleNegation: replacing a net by its double
// negation must not change any verdict.
func TestMetamorphicDoubleNegation(t *testing.T) {
	rng := sim.NewRand(99)
	for i, c := range metamorphicSubjects(t) {
		b := c.Clone()
		// Pick a random internal net with sinks and splice NOT(NOT(n))
		// between it and its fanout.
		var nets []netlist.GateID
		for id := 0; id < b.NumIDs(); id++ {
			gid := netlist.GateID(id)
			if !b.Alive(gid) || b.Gate(gid).Type == netlist.Output {
				continue
			}
			if b.FanoutCount(gid) > 0 {
				nets = append(nets, gid)
			}
		}
		net := nets[rng.Intn(len(nets))]
		n1 := b.MustAdd(fmt.Sprintf("dneg%d_a", i), netlist.Not, net)
		n2 := b.MustAdd(fmt.Sprintf("dneg%d_b", i), netlist.Not, n1)
		b.RewireNet(net, n2)
		b.Gate(n1).Fanin[0] = net // RewireNet moved n1's own pin too
		b.Invalidate()
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := Check(c, b, Options{PrefilterPatterns: -1})
		if err != nil {
			t.Fatalf("subject %d: %v", i, err)
		}
		if !res.Equivalent {
			t.Fatalf("subject %d: double negation broke equivalence (cex %v)", i, res.Counterexample)
		}
		// ¬¬x cancels during AIG construction, so the proof is free.
		if res.Stats.SATPairs != 0 {
			t.Errorf("subject %d: double negation required %d SAT pairs", i, res.Stats.SATPairs)
		}
	}
}

// TestXnorComplementMergeRegression is the complement-sweeping
// regression the AIG layer exists for. The pre-AIG sweeper bucketed
// candidate merges by plain simulation signature over SAT variables,
// so a net and its complement never landed in the same bucket and an
// XNOR-vs-NOT(XOR) pair always fell through to a full miter proof.
// On the AIG path both shapes are the same node reached through a
// complemented edge (structural case), and a *restructured* complement
// (the OR-of-ANDs XNOR) merges through the complement-canonical
// signature buckets of the sweeper — zero observable pairs may reach
// the SAT miter.
func TestXnorComplementMergeRegression(t *testing.T) {
	mk := func(src, name string) *netlist.Circuit {
		c, err := netlist.ParseBenchString(src, name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := mk(notXorBench, "notxor")

	t.Run("structural", func(t *testing.T) {
		b := mk(`
INPUT(x)
INPUT(y)
OUTPUT(o)
o = XNOR(x, y)
`, "xnor")
		res, err := Check(a, b, Options{PrefilterPatterns: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatal("XNOR not equivalent to NOT(XOR)")
		}
		// Both forms strash to one node: no sweeping, no CNF at all.
		if res.Stats.ProblemClauses != 0 || res.Stats.SATPairs != 0 {
			t.Errorf("structural complement needed CNF: %+v", res.Stats)
		}
		if res.Stats.AIGNodes == 0 {
			t.Error("check did not run through the AIG layer")
		}
	})

	t.Run("restructured", func(t *testing.T) {
		b := mk(xnorSOPBench, "xnor_sop")
		res, err := Check(a, b, Options{PrefilterPatterns: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Equivalent {
			t.Fatal("sum-of-products XNOR not equivalent to NOT(XOR)")
		}
		// The two cones differ structurally as written; the cut
		// rewriter normalizes both onto one structure or the
		// complement-canonical sweep proves the merge, so the output
		// pair must never need SAT.
		if res.Stats.SweepMerges == 0 && res.Stats.Rewrites == 0 {
			t.Error("neither the rewriter nor the sweeper merged the complement forms")
		}
		if res.Stats.SATPairs != 0 {
			t.Errorf("output pair fell through to the miter: %+v", res.Stats)
		}
	})
}

// notXorBench and xnorSOPBench are one function, XNOR(x, y), written as
// two structurally different cones.
const (
	notXorBench = `
INPUT(x)
INPUT(y)
OUTPUT(o)
t = XOR(x, y)
o = NOT(t)
`
	xnorSOPBench = `
INPUT(x)
INPUT(y)
OUTPUT(o)
nx = NOT(x)
ny = NOT(y)
both = AND(x, y)
neither = AND(nx, ny)
o = OR(both, neither)
`
)

// TestSweeperMergesComplementForms sweeps the two XNOR forms on the
// shared graph as strashing leaves it, before any cut rewriting: the
// complement-canonical signatures must bucket them together and the
// probe must merge them, so the sweeper alone resolves the pair.
func TestSweeperMergesComplementForms(t *testing.T) {
	a := mustParse(t, notXorBench, "notxor")
	b := mustParse(t, xnorSOPBench, "xnor_sop")
	bld := aig.NewBuilder()
	ma, err := bld.Add(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := bld.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := ma[a.Outputs()[0]], mb[b.Outputs()[0]]
	if la == lb {
		t.Fatal("strashing already merged the two forms; the sweep has nothing to prove")
	}
	sw := newSweeper(bld.Graph(), sat.New(), bld, 1)
	sw.sweep([]aig.Lit{la, lb})
	if sw.merges == 0 {
		t.Error("the sweeper merged nothing")
	}
	if sw.find(la) != sw.find(lb) {
		t.Errorf("outputs still differ after sweeping: %v vs %v", sw.find(la), sw.find(lb))
	}
}
