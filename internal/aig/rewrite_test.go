package aig

import (
	"fmt"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// diffRewrite cross-checks one circuit through two rewriting passes in
// sequence, the second over the first's output through the composed
// node map: every live net of the rewritten graph must simulate
// bit-identically to sim.Evaluator, and the rewritten-graph -> netlist
// round trip must reproduce the observables. Roots are every live net,
// so the rewrite must preserve every net function, not just the
// outputs.
func diffRewrite(t *testing.T, c *netlist.Circuit, rng *sim.Rand) {
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
	var roots []Lit
	for id := 0; id < c.NumIDs(); id++ {
		if gid := netlist.GateID(id); c.Alive(gid) && m[gid] != Invalid {
			roots = append(roots, m[gid])
		}
	}
	for pass := 0; pass < 2; pass++ {
		before := bld.Graph().NumAnds()
		rm, st := bld.Rewrite(roots)
		m.Remap(rm)
		for i := range roots {
			roots[i] = MapLit(rm, roots[i])
		}
		if st.NodesBefore != before {
			t.Fatalf("pass %d: stats NodesBefore = %d, want %d", pass, st.NodesBefore, before)
		}
		if st.NodesAfter != bld.Graph().NumAnds() {
			t.Fatalf("pass %d: stats NodesAfter = %d, graph has %d", pass, st.NodesAfter, bld.Graph().NumAnds())
		}
	}
	g := bld.Graph()

	in := make([]uint64, len(c.Inputs()))
	stw := make([]uint64, len(c.DFFs()))
	rng.Fill(in)
	rng.Fill(stw)
	nets := ev.NewNetBuffer()
	ev.Eval(in, stw, nets)

	wordByName := make(map[string]uint64)
	for i, id := range c.Inputs() {
		wordByName[c.Gate(id).Name] = in[i]
	}
	for i, id := range c.DFFs() {
		wordByName[c.Gate(id).Name] = stw[i]
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
		l := m[gid]
		if l == Invalid {
			t.Fatalf("net %q dropped by rewrite despite being a root", c.Gate(gid).Name)
		}
		if got, want := LitWord(buf, l), nets[id]; got != want {
			t.Fatalf("net %q (%s): rewritten AIG %016x, evaluator %016x",
				c.Gate(gid).Name, c.Gate(gid).Type, got, want)
		}
	}

	// Round trip through the netlist exporter, like diffOne.
	rt, err := ToCircuit(g, c, m, c.Name+"_rw")
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := sim.NewEvaluator(rt)
	if err != nil {
		t.Fatal(err)
	}
	nets2 := ev2.NewNetBuffer()
	ev2.Eval(in, stw, nets2)
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

// TestRewriteRandomCircuits is the table-driven face of the rewrite
// fuzz target.
func TestRewriteRandomCircuits(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	rng := sim.NewRand(0x4e77)
	for trial := 0; trial < trials; trial++ {
		c := randCircuit(rng, fmt.Sprintf("rw%d", trial))
		diffRewrite(t, c, rng)
	}
}

// FuzzRewriteDifferential lets the fuzzer drive the circuit generator;
// any net whose function changes under Rewrite crashes the target.
func FuzzRewriteDifferential(f *testing.F) {
	for _, s := range []uint64{1, 99, 0xfeedface, 1 << 33} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := sim.NewRand(seed)
		c := randCircuit(rng, "rwfuzz")
		diffRewrite(t, c, rng)
	})
}

// TestRewriteFactorsSharedLiteral: (a AND b) OR (a AND c) costs three
// AND nodes as built; the 3-leaf cut rewrites it to a AND (b OR c) —
// two nodes — which plain strashing can never do.
func TestRewriteFactorsSharedLiteral(t *testing.T) {
	g := New()
	a, b, c := g.AddLeaf(), g.AddLeaf(), g.AddLeaf()
	f := g.Or(g.And(a, b), g.And(a, c))
	if g.NumAnds() != 3 {
		t.Fatalf("setup: expected 3 AND nodes, have %d", g.NumAnds())
	}
	ng, m, st := Rewrite(g, []Lit{f})
	if ng.NumAnds() >= 3 {
		t.Fatalf("rewrite kept %d AND nodes, want < 3 (stats %+v)", ng.NumAnds(), st)
	}
	if st.Rewrites == 0 {
		t.Fatal("no rewrite recorded")
	}
	// Check the function on all 8 minterms.
	nf := MapLit(m, f)
	buf := make([]uint64, ng.NumNodes())
	leafW := []uint64{0xaa, 0xcc, 0xf0}
	ng.Eval(leafW, buf)
	want := (uint64(0xaa) & 0xcc) | (0xaa & 0xf0)
	if got := LitWord(buf, nf) & 0xff; got != want {
		t.Fatalf("rewritten function %02x, want %02x", got, want)
	}
}

// TestRewriteKeepsLeafOrder: leaves survive a rewrite in index order
// even when they feed nothing reachable from the roots.
func TestRewriteKeepsLeafOrder(t *testing.T) {
	g := New()
	var leaves []Lit
	for i := 0; i < 5; i++ {
		leaves = append(leaves, g.AddLeaf())
	}
	f := g.And(leaves[1], leaves[3])
	ng, m, _ := Rewrite(g, []Lit{f})
	if ng.NumLeaves() != 5 {
		t.Fatalf("leaf count changed: %d", ng.NumLeaves())
	}
	for i, l := range leaves {
		nl := MapLit(m, l)
		if nl == Invalid {
			t.Fatalf("leaf %d dropped", i)
		}
		if got := ng.LeafIndex(nl.Node()); got != i || nl.IsCompl() {
			t.Fatalf("leaf %d mapped to leaf index %d (compl=%v)", i, got, nl.IsCompl())
		}
	}
}
