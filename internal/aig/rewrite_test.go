package aig

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/bmarks"
	"repro/internal/locking"
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

// ttTransform is the per-minterm reference for the NPN transform:
// the result r satisfies r(y) = outC ^ tt(x) with
// x[v] = y[perm[v]] ^ inMask[v].
func ttTransform(tt uint16, perm [4]uint8, inMask, outC uint32) uint16 {
	var out uint16
	for m := 0; m < 16; m++ {
		src := uint32(0)
		for v := 0; v < 4; v++ {
			bit := uint32(m>>perm[v]) & 1
			bit ^= (inMask >> v) & 1
			src |= bit << v
		}
		if tt>>src&1 == 1 {
			out |= 1 << m
		}
	}
	if outC == 1 {
		out = ^out
	}
	return out
}

// npnSearchRef is the exhaustive NPN search npnCanon must reproduce:
// every transform in (output phase, input mask, permutation) order,
// keeping the first strictly smallest table.
func npnSearchRef(tt uint16) (best uint16, pi int, mask, outC uint32) {
	first := true
	for o := uint32(0); o < 2; o++ {
		for m := uint32(0); m < 16; m++ {
			for p := range perms4 {
				t := ttTransform(tt, perms4[p], m, o)
				if first || t < best {
					best, pi, mask, outC = t, p, m, o
					first = false
				}
			}
		}
	}
	return
}

// clearNPNMemo forgets every memoized canonical form, so the next
// Rewrite in this process starts cold.
func clearNPNMemo() {
	for i := range npnMemo {
		npnMemo[i].Store(0)
	}
}

// TestNPNCanonicalMatchesSearch: the memoized, bit-parallel canonical
// form and its binding equal the exhaustive reference search for every
// 16-bit truth table (a fixed stride of them under -short), both on a
// fresh search and on a memo hit.
func TestNPNCanonicalMatchesSearch(t *testing.T) {
	clearNPNMemo()
	stride := 1
	if testing.Short() {
		stride = 97
	}
	const chunks = 8
	for k := 0; k < chunks; k++ {
		t.Run(fmt.Sprintf("chunk%d", k), func(t *testing.T) {
			t.Parallel()
			for tt := k * stride; tt < 1<<16; tt += chunks * stride {
				wb, wpi, wm, wo := npnSearchRef(uint16(tt))
				for _, hit := range []bool{false, true} {
					b, pi, m, o := npnCanon(uint16(tt))
					if b != wb || pi != wpi || m != wm || o != wo {
						t.Fatalf("tt %04x (memo hit %v): got (best %04x, perm %d, mask %x, outC %d), want (%04x, %d, %x, %d)",
							tt, hit, b, pi, m, o, wb, wpi, wm, wo)
					}
				}
				if got := ttTransform(uint16(tt), perms4[wpi], wm, wo); got != wb {
					t.Fatalf("tt %04x: reference binding gives %04x, not its best %04x", tt, got, wb)
				}
			}
		})
	}
}

// TestNPNTransformMatchesReference: cofactor-swap input flips followed
// by the nibble-table permutation equal the per-minterm transform.
func TestNPNTransformMatchesReference(t *testing.T) {
	rng := sim.NewRand(0x4e9e)
	for i := 0; i < 200000; i++ {
		tt := uint16(rng.Intn(1 << 16))
		pi := rng.Intn(len(perms4))
		mask := uint32(rng.Intn(16))
		o := uint32(rng.Intn(2))
		got := ttPermute(ttFlip(tt, mask), pi)
		if o == 1 {
			got = ^got
		}
		if want := ttTransform(tt, perms4[pi], mask, o); got != want {
			t.Fatalf("tt %04x perm %v mask %x outC %d: got %04x, want %04x", tt, perms4[pi], mask, o, got, want)
		}
	}
}

// rewriteInput is one graph and root set to rewrite.
type rewriteInput struct {
	g     *Graph
	roots []Lit
}

// rewriteResult is everything a Rewrite returns.
type rewriteResult struct {
	g  *Graph
	m  []Lit
	st RewriteStats
}

// sameGraph reports whether two graphs are node-for-node identical.
func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumLeaves() != b.NumLeaves() {
		return false
	}
	for n := 1; n < a.NumNodes(); n++ {
		if a.IsAnd(n) != b.IsAnd(n) {
			return false
		}
		if !a.IsAnd(n) {
			if a.LeafIndex(n) != b.LeafIndex(n) {
				return false
			}
			continue
		}
		a0, a1 := a.Fanins(n)
		b0, b1 := b.Fanins(n)
		if a0 != b0 || a1 != b1 {
			return false
		}
	}
	return true
}

// TestRewriteConcurrentMatchesSerial: rewriters sharing the process-wide
// NPN memo from a cold start, on different graphs at the same time,
// produce exactly the graphs, node maps and stats of a serial run.
func TestRewriteConcurrentMatchesSerial(t *testing.T) {
	rng := sim.NewRand(0xc0c0)
	var ins []rewriteInput
	for i := 0; i < 24; i++ {
		c := randCircuit(rng, fmt.Sprintf("cc%d", i))
		g, m, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		var roots []Lit
		for id := 0; id < c.NumIDs(); id++ {
			if gid := netlist.GateID(id); c.Alive(gid) && m[gid] != Invalid {
				roots = append(roots, m[gid])
			}
		}
		ins = append(ins, rewriteInput{g, roots})
	}
	for _, name := range []string{"c432", "c880"} {
		c, err := bmarks.Load(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, m, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		var roots []Lit
		for _, id := range c.Outputs() {
			roots = append(roots, m[id])
		}
		ins = append(ins, rewriteInput{g, roots})
	}

	run := func(in rewriteInput) rewriteResult {
		h, m, st := Rewrite(in.g, in.roots)
		return rewriteResult{h, m, st}
	}
	clearNPNMemo()
	serial := make([]rewriteResult, len(ins))
	for i, in := range ins {
		serial[i] = run(in)
	}

	clearNPNMemo()
	const workers = 4
	conc := make([]rewriteResult, len(ins))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the inputs in its own rotation, so the
			// same truth tables are first met by different workers.
			for k := range ins {
				i := (k + w*len(ins)/workers) % len(ins)
				if i%workers == w {
					conc[i] = run(ins[i])
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range ins {
		s, c := serial[i], conc[i]
		if s.st != c.st {
			t.Fatalf("input %d: stats %+v concurrently, %+v serially", i, c.st, s.st)
		}
		if !slices.Equal(s.m, c.m) {
			t.Fatalf("input %d: node maps differ", i)
		}
		if !sameGraph(s.g, c.g) {
			t.Fatalf("input %d: rewritten graphs differ", i)
		}
	}
}

// BenchmarkRewrite runs one rewriting pass over BenchmarkLEC's miter
// graph (0.1-scale b14 and its 64-bit random lock, seed 11, built into
// one shared graph; roots are the observable pairs), with the NPN memo
// cleared before every iteration (cold: each distinct cut function is
// searched once per pass) and filled beforehand (warm: every search is
// a memo hit). The work counters are the pass's stats.
func BenchmarkRewrite(b *testing.B) {
	orig, err := bmarks.Load("b14", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 64, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	bld := NewBuilder()
	ma, err := bld.Add(orig)
	if err != nil {
		b.Fatal(err)
	}
	mb, err := bld.Add(lk.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	var roots []Lit
	for i, o := range orig.Outputs() {
		roots = append(roots, ma[o], mb[lk.Circuit.Outputs()[i]])
	}
	ffB := make(map[string]netlist.GateID)
	for _, id := range lk.Circuit.DFFs() {
		ffB[lk.Circuit.Gate(id).Name] = id
	}
	for _, fa := range orig.DFFs() {
		fb := ffB[orig.Gate(fa).Name]
		roots = append(roots, ma[orig.Gate(fa).Fanin[0]], mb[lk.Circuit.Gate(fb).Fanin[0]])
	}
	g := bld.Graph()

	for _, cold := range []bool{true, false} {
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			if !cold {
				Rewrite(g, roots)
			}
			var st RewriteStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					clearNPNMemo()
					b.StartTimer()
				}
				_, _, st = Rewrite(g, roots)
			}
			b.ReportMetric(float64(st.Cuts), "cuts")
			b.ReportMetric(float64(st.Classes), "classes")
			b.ReportMetric(float64(st.Rewrites), "rewrites")
			b.ReportMetric(float64(st.NodesAfter), "nodesAfter")
		})
	}
}
