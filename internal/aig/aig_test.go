package aig

import (
	"fmt"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// randCircuit generates a random circuit over every gate type the
// netlist supports: inputs, optional flip-flops (with feedback through
// the state boundary), TIE cells, and a DAG of random multi-input
// gates. The same generator drives the table-driven differential test
// and the go-fuzz target.
func randCircuit(rng *sim.Rand, name string) *netlist.Circuit {
	c := netlist.New(name)
	nIn := 2 + rng.Intn(6)
	var pool []netlist.GateID
	for i := 0; i < nIn; i++ {
		id, err := c.AddInput(fmt.Sprintf("i%d", i))
		if err != nil {
			panic(err)
		}
		pool = append(pool, id)
	}
	var dffs []netlist.GateID
	for i, n := 0, rng.Intn(3); i < n; i++ {
		id := c.MustAdd(fmt.Sprintf("ff%d", i), netlist.DFF, pool[rng.Intn(len(pool))])
		pool = append(pool, id)
		dffs = append(dffs, id)
	}
	if rng.Intn(2) == 1 {
		pool = append(pool, c.MustAdd("th", netlist.TieHi))
	}
	if rng.Intn(2) == 1 {
		pool = append(pool, c.MustAdd("tl", netlist.TieLo))
	}
	types := []netlist.GateType{
		netlist.And, netlist.Nand, netlist.Or, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Mux, netlist.Buf, netlist.Not,
	}
	for i, n := 0, 5+rng.Intn(40); i < n; i++ {
		t := types[rng.Intn(len(types))]
		var k int
		switch t {
		case netlist.Buf, netlist.Not:
			k = 1
		case netlist.Mux:
			k = 3
		default:
			k = 2 + rng.Intn(3)
		}
		fanin := make([]netlist.GateID, k)
		for j := range fanin {
			fanin[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, c.MustAdd(fmt.Sprintf("g%d", i), t, fanin...))
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		c.MustAdd(fmt.Sprintf("o%d", i), netlist.Output, pool[rng.Intn(len(pool))])
	}
	// Retarget flip-flop D pins into the built logic (feedback through
	// the sequential boundary is combinationally legal).
	for _, ff := range dffs {
		if err := c.SetFanin(ff, 0, pool[rng.Intn(len(pool))]); err != nil {
			panic(err)
		}
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c
}

// diffOne cross-checks one circuit: every live net must simulate
// bit-identically through sim.Evaluator and through the strashed AIG,
// and the AIG→netlist round trip must reproduce the observables.
func diffOne(t *testing.T, c *netlist.Circuit, rng *sim.Rand) {
	t.Helper()
	ev, err := sim.NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	bld := NewBuilder()
	m, err := bld.Add(c)
	if err != nil {
		t.Fatal(err)
	}
	g := bld.Graph()

	in := make([]uint64, len(c.Inputs()))
	st := make([]uint64, len(c.DFFs()))
	rng.Fill(in)
	rng.Fill(st)
	nets := ev.NewNetBuffer()
	ev.Eval(in, st, nets)

	wordByName := make(map[string]uint64)
	for i, id := range c.Inputs() {
		wordByName[c.Gate(id).Name] = in[i]
	}
	for i, id := range c.DFFs() {
		wordByName[c.Gate(id).Name] = st[i]
	}
	leafW := make([]uint64, g.NumLeaves())
	for i := range leafW {
		leafW[i] = wordByName[bld.LeafName(i)]
	}
	buf := make([]uint64, g.NumNodes())
	g.Eval(leafW, buf)

	for id := 0; id < c.NumIDs(); id++ {
		gid := netlist.GateID(id)
		if !c.Alive(gid) {
			continue
		}
		want := nets[id]
		if got := LitWord(buf, m[gid]); got != want {
			t.Fatalf("net %q (%s): AIG %016x, evaluator %016x",
				c.Gate(gid).Name, c.Gate(gid).Type, got, want)
		}
	}

	// Round trip: export the strashed graph back to a netlist and
	// simulate the same patterns.
	rt, err := ToCircuit(g, c, m, c.Name+"_rt")
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := sim.NewEvaluator(rt)
	if err != nil {
		t.Fatal(err)
	}
	nets2 := ev2.NewNetBuffer()
	ev2.Eval(in, st, nets2)
	outs := ev.OutputWords(nets, nil)
	outs2 := ev2.OutputWords(nets2, nil)
	for i := range outs {
		if outs[i] != outs2[i] {
			t.Fatalf("round trip: output %d differs (%016x vs %016x)", i, outs[i], outs2[i])
		}
	}
	ns := ev.NextStateWords(nets, nil)
	ns2 := ev2.NextStateWords(nets2, nil)
	for i := range ns {
		if ns[i] != ns2[i] {
			t.Fatalf("round trip: next-state %d differs (%016x vs %016x)", i, ns[i], ns2[i])
		}
	}
}

// TestDifferentialRandomCircuits is the table-driven face of the fuzz
// target: many random circuits, each simulated through both engines.
func TestDifferentialRandomCircuits(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := sim.NewRand(0xa16)
	for trial := 0; trial < trials; trial++ {
		c := randCircuit(rng, fmt.Sprintf("fz%d", trial))
		diffOne(t, c, rng)
	}
}

// FuzzAIGDifferential lets the fuzzer drive the generator seed; any
// circuit whose AIG simulation diverges from the reference evaluator
// (before or after strashing) crashes the target.
func FuzzAIGDifferential(f *testing.F) {
	for _, s := range []uint64{1, 42, 0xdeadbeef, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := sim.NewRand(seed)
		c := randCircuit(rng, "fuzz")
		diffOne(t, c, rng)
	})
}

// TestStrashMergesComplementForms: the canonical XOR construction makes
// an XNOR gate and a NOT(XOR) land on the same node through a
// complemented edge — the merge the variable-signature encoder of the
// pre-AIG sweeper could never make.
func TestStrashMergesComplementForms(t *testing.T) {
	g := New()
	a, b := g.AddLeaf(), g.AddLeaf()
	x := g.Xor(a, b)
	xn := g.Xor(a, b).Not()
	// Build XNOR the way Builder.Add does for an XNOR gate.
	xnor := g.Xor(a, b).Not()
	if xn != xnor {
		t.Fatalf("XNOR forms differ: %v vs %v", xn, xnor)
	}
	if xnor != x.Not() {
		t.Fatalf("XNOR %v is not the complement of XOR %v", xnor, x)
	}
	if g.Stats.StrashHits == 0 {
		t.Fatal("no strash hits while rebuilding an identical cone")
	}
}

// TestTwoLevelRewrites exercises the constant/identity/complement and
// one-level-deep rules directly.
func TestTwoLevelRewrites(t *testing.T) {
	g := New()
	a, b := g.AddLeaf(), g.AddLeaf()
	ab := g.And(a, b)
	cases := []struct {
		name string
		got  Lit
		want Lit
	}{
		{"x∧0", g.And(a, False), False},
		{"x∧1", g.And(a, True), a},
		{"x∧x", g.And(a, a), a},
		{"x∧¬x", g.And(a, a.Not()), False},
		{"absorption a∧(a∧b)", g.And(a, ab), ab},
		{"contradiction ¬a∧(a∧b)", g.And(a.Not(), ab), False},
		{"nand satisfied ¬a∧¬(a∧b)", g.And(a.Not(), ab.Not()), a.Not()},
		{"substitution a∧¬(a∧b)", g.And(a, ab.Not()), g.And(a, b.Not())},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	// Cross contradiction between two AND nodes.
	c := g.AddLeaf()
	x := g.And(a, c)
	y := g.And(a.Not(), b)
	if got := g.And(x, y); got != False {
		t.Errorf("(a∧c)∧(¬a∧b): got %v, want const false", got)
	}
}

// TestSignaturesMatchEval: word k of every node's signature must be
// what Eval computes on stimulus word k.
func TestSignaturesMatchEval(t *testing.T) {
	rng := sim.NewRand(7)
	stim := func(leaf, k int) uint64 {
		return uint64(leaf+1)*0x9e3779b97f4a7c15 ^ uint64(k)*0xbf58476d1ce4e5b9
	}
	for trial := 0; trial < 4; trial++ {
		bld := NewBuilder()
		if _, err := bld.Add(randCircuit(rng, fmt.Sprintf("sig%d", trial))); err != nil {
			t.Fatal(err)
		}
		g := bld.Graph()
		leafW := make([]uint64, g.NumLeaves())
		buf := make([]uint64, g.NumNodes())
		for _, words := range []int{1, 4, 5} {
			sigs := g.Signatures(words, stim)
			if len(sigs) != g.NumNodes()*words {
				t.Fatalf("trial %d, %d words: %d signature words, want %d", trial, words, len(sigs), g.NumNodes()*words)
			}
			for k := 0; k < words; k++ {
				for i := range leafW {
					leafW[i] = stim(i, k)
				}
				g.Eval(leafW, buf)
				for n, v := range buf {
					if got := sigs[n*words+k]; got != v {
						t.Fatalf("trial %d, %d words: node %d word %d = %#x, Eval gives %#x", trial, words, n, k, got, v)
					}
				}
			}
		}
	}
}
