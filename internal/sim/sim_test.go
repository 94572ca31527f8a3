package sim

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

func c17(t *testing.T) *netlist.Circuit {
	t.Helper()
	src := `
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
	c, err := netlist.ParseBenchString(src, "c17")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refC17 is a bit-level reference model of c17.
func refC17(i1, i2, i3, i4, i5 bool) (o1, o2 bool) {
	nand := func(a, b bool) bool { return !(a && b) }
	u8 := nand(i1, i3)
	u9 := nand(i3, i4)
	u10 := nand(i2, u9)
	u11 := nand(u9, i5)
	return nand(u8, u10), nand(u10, u11)
}

func TestEvalMatchesReference(t *testing.T) {
	c := c17(t)
	e, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, 5)
	nets := e.NewNetBuffer()
	// All 32 patterns fit in one word.
	ExhaustiveWords(in, 5, 0)
	e.Eval(in, nil, nets)
	var out []uint64
	out = e.OutputWords(nets, out)
	for p := 0; p < 32; p++ {
		bit := func(w uint64) bool { return w>>uint(p)&1 == 1 }
		o1, o2 := refC17(bit(in[0]), bit(in[1]), bit(in[2]), bit(in[3]), bit(in[4]))
		if bit(out[0]) != o1 || bit(out[1]) != o2 {
			t.Fatalf("pattern %d: got (%v,%v), want (%v,%v)", p, bit(out[0]), bit(out[1]), o1, o2)
		}
	}
}

func TestAllGateTypes(t *testing.T) {
	c := netlist.New("all")
	a := c.MustAdd("a", netlist.Input)
	b := c.MustAdd("b", netlist.Input)
	s := c.MustAdd("s", netlist.Input)
	gates := map[string]netlist.GateID{
		"and":  c.MustAdd("g_and", netlist.And, a, b),
		"nand": c.MustAdd("g_nand", netlist.Nand, a, b),
		"or":   c.MustAdd("g_or", netlist.Or, a, b),
		"nor":  c.MustAdd("g_nor", netlist.Nor, a, b),
		"xor":  c.MustAdd("g_xor", netlist.Xor, a, b),
		"xnor": c.MustAdd("g_xnor", netlist.Xnor, a, b),
		"not":  c.MustAdd("g_not", netlist.Not, a),
		"buf":  c.MustAdd("g_buf", netlist.Buf, a),
		"mux":  c.MustAdd("g_mux", netlist.Mux, s, a, b),
		"hi":   c.MustAdd("g_hi", netlist.TieHi),
		"lo":   c.MustAdd("g_lo", netlist.TieLo),
	}
	for name, id := range gates {
		c.MustAdd("o_"+name, netlist.Output, id)
	}
	e, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, 3)
	ExhaustiveWords(in, 3, 0)
	nets := e.NewNetBuffer()
	e.Eval(in, nil, nets)
	av, bv, sv := in[0], in[1], in[2]
	want := map[string]uint64{
		"and":  av & bv,
		"nand": ^(av & bv),
		"or":   av | bv,
		"nor":  ^(av | bv),
		"xor":  av ^ bv,
		"xnor": ^(av ^ bv),
		"not":  ^av,
		"buf":  av,
		"mux":  (^sv & av) | (sv & bv),
		"hi":   ^uint64(0),
		"lo":   0,
	}
	for name, w := range want {
		if nets[gates[name]] != w {
			t.Errorf("%s: got %016x want %016x", name, nets[gates[name]], w)
		}
	}
}

func TestSequentialEval(t *testing.T) {
	// d = NOT(q): next state is the complement of current state.
	c := netlist.New("toggle")
	in := c.MustAdd("en", netlist.Input)
	q := c.MustAdd("q", netlist.DFF, in) // placeholder
	d := c.MustAdd("d", netlist.Not, q)
	if err := c.SetFanin(q, 0, d); err != nil {
		t.Fatal(err)
	}
	c.MustAdd("o", netlist.Output, q)
	e, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	nets := e.NewNetBuffer()
	state := []uint64{0xdeadbeefcafebabe}
	e.Eval([]uint64{0}, state, nets)
	var ns []uint64
	ns = e.NextStateWords(nets, ns)
	if ns[0] != ^state[0] {
		t.Fatalf("next state = %016x, want complement of %016x", ns[0], state[0])
	}
}

func TestCompareIdenticalCircuits(t *testing.T) {
	c := c17(t)
	d, err := Compare(c, c.Clone(), CompareOptions{Patterns: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.HD != 0 || d.OER != 0 {
		t.Fatalf("self-compare: HD=%v OER=%v, want 0/0", d.HD, d.OER)
	}
	if d.Patterns != 1024 {
		t.Fatalf("patterns = %d", d.Patterns)
	}
}

func TestCompareDetectsDifference(t *testing.T) {
	c := c17(t)
	mod := c.Clone()
	// Flip U12 from NAND to AND: outputs differ whenever U12 would be 0.
	u12 := mod.GateByName("U12")
	mod.Gate(u12).Type = netlist.And
	d, err := Compare(c, mod, CompareOptions{Patterns: 4096, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d.OER == 0 || d.HD == 0 {
		t.Fatalf("modified circuit reported identical: %+v", d)
	}
	eq, err := EquivalentOpt(c, mod, CompareOptions{Patterns: 4096, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("Equivalent returned true for different circuits")
	}
}

func TestCompareRejectsMismatchedBoundaries(t *testing.T) {
	c := c17(t)
	other := netlist.New("tiny")
	a := other.MustAdd("a", netlist.Input)
	other.MustAdd("o", netlist.Output, a)
	if _, err := Compare(c, other, CompareOptions{Patterns: 64}); err == nil {
		t.Fatal("mismatched circuits accepted")
	}
}

func TestNewRandAtMatchesSequentialStream(t *testing.T) {
	ref := NewRand(99)
	var stream []uint64
	for i := 0; i < 200; i++ {
		stream = append(stream, ref.Word())
	}
	for _, skip := range []uint64{0, 1, 63, 64, 137} {
		r := NewRandAt(99, skip)
		for i := skip; i < uint64(len(stream)); i++ {
			if got := r.Word(); got != stream[i] {
				t.Fatalf("skip=%d word %d: got %016x want %016x", skip, i, got, stream[i])
			}
		}
	}
}

// Same seed ⇒ bit-identical HD/OER for every worker count, including
// the serial path. This is the engine's core determinism contract.
func TestCompareWorkerCountInvariance(t *testing.T) {
	c := c17(t)
	mod := c.Clone()
	u12 := mod.GateByName("U12")
	mod.Gate(u12).Type = netlist.And
	ref, err := Compare(c, mod, CompareOptions{Patterns: 1 << 14, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		d, err := Compare(c, mod, CompareOptions{Patterns: 1 << 14, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d != ref {
			t.Fatalf("workers=%d: %+v differs from serial %+v", workers, d, ref)
		}
	}
}

func TestActivityMatchesManualSerial(t *testing.T) {
	// Activity uses the default pool; recompute serially by hand and
	// require exact agreement (counts merge exactly).
	c := c17(t)
	act, err := ActivityOpt(c, ActivityOptions{Patterns: 4096, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	words := 4096 / 64
	in := make([]uint64, len(c.Inputs()))
	nets := e.NewNetBuffer()
	ones := make([]int, c.NumIDs())
	rng := NewRand(21)
	for w := 0; w < words; w++ {
		rng.Fill(in)
		e.Eval(in, nil, nets)
		for i, v := range nets {
			ones[i] += countOnes(v)
		}
	}
	for i, n := range ones {
		p := float64(n) / float64(words*64)
		want := 2 * p * (1 - p)
		if c.Alive(netlist.GateID(i)) && act[i] != want {
			t.Fatalf("net %d: activity %v, want %v", i, act[i], want)
		}
	}
}

func countOnes(v uint64) int { return bits.OnesCount64(v) }

func TestRandDeterminism(t *testing.T) {
	r1, r2 := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if r1.Word() != r2.Word() {
			t.Fatal("same seed diverged")
		}
	}
	r3 := NewRand(43)
	same := 0
	r1 = NewRand(42)
	for i := 0; i < 64; i++ {
		if r1.Word() == r3.Word() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds suspiciously correlated: %d/64 equal words", same)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestExhaustiveWordsCoverAllPatterns(t *testing.T) {
	// Over 8 variables, collect all 256 minterms from 4 chunks.
	n := 8
	in := make([]uint64, n)
	seen := make(map[int]bool)
	for ch := 0; ch < 4; ch++ {
		ExhaustiveWords(in, n, ch)
		for b := 0; b < 64; b++ {
			m := 0
			for i := 0; i < n; i++ {
				if in[i]>>uint(b)&1 == 1 {
					m |= 1 << i
				}
			}
			if seen[m] {
				t.Fatalf("minterm %d seen twice", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 256 {
		t.Fatalf("covered %d/256 minterms", len(seen))
	}
}

// coneOrder returns the gates of cone in topological order.
func coneOrder(t *testing.T, c *netlist.Circuit, cone map[netlist.GateID]bool) []netlist.GateID {
	t.Helper()
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	var ids []netlist.GateID
	for _, id := range order {
		if cone[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

func TestConeOnPIs(t *testing.T) {
	c := c17(t)
	u12 := c.GateByName("U12")
	sup := c.Support(u12)
	// The cone includes the primary inputs, which it must leave at
	// their forced values.
	k, err := CompileCone(c, coneOrder(t, c, c.TransitiveFanin(u12)))
	if err != nil {
		t.Fatal(err)
	}
	forced := make([]uint64, len(sup))
	ExhaustiveWords(forced, len(sup), 0)
	nets := make([]uint64, c.NumIDs())
	for i, s := range sup {
		nets[s] = forced[i]
	}
	k.Eval(nets)
	// Support is sorted by ID = declaration order I1..I4 (I5 not in
	// U12's cone).
	for m := 0; m < 1<<len(sup); m++ {
		get := func(i int) bool { return m>>uint(i)&1 == 1 }
		o1, _ := refC17(get(0), get(1), get(2), get(3), false)
		if got := nets[u12]>>uint(m)&1 == 1; got != o1 {
			t.Fatalf("minterm %d: cone=%v ref=%v", m, got, o1)
		}
	}
}

func TestConeOnInternalFrontier(t *testing.T) {
	c := c17(t)
	u12 := c.GateByName("U12")
	// Depth-1 cone: frontier is {U8, U10}; U12 = NAND(U8, U10).
	cone, frontier := c.BoundedCone(u12, 1)
	k, err := CompileCone(c, coneOrder(t, c, cone))
	if err != nil {
		t.Fatal(err)
	}
	forced := make([]uint64, len(frontier))
	ExhaustiveWords(forced, len(frontier), 0)
	nets := make([]uint64, c.NumIDs())
	for i, s := range frontier {
		nets[s] = forced[i]
	}
	k.Eval(nets)
	// Frontier order is ascending ID: U8 (earlier) then U10, so the
	// four minterms read the NAND truth table.
	if got := nets[u12] & 0xf; got != 0b0111 {
		t.Fatalf("U12 over the frontier = %04b, want 0111", got)
	}
}

// TestConeGateSemantics pins every gate a cone compiles against
// hand-computed words: And…Xnor at 0 to 3 fanins (degenerate arities
// fold to the identity element or its complement), Not, Buf, Mux, and
// the sources, which a cone leaves at their buffer value.
func TestConeGateSemantics(t *testing.T) {
	const (
		av   = 0xaaaaaaaaaaaaaaaa
		bv   = 0xcccccccccccccccc
		sv   = 0xf0f0f0f0f0f0f0f0
		ones = ^uint64(0)
		junk = 0x0123456789abcdef
	)
	c := netlist.New("cone")
	a := c.MustAdd("a", netlist.Input)
	b := c.MustAdd("b", netlist.Input)
	s := c.MustAdd("s", netlist.Input)
	q := c.MustAdd("q", netlist.DFF, a)
	hi := c.MustAdd("hi", netlist.TieHi)
	lo := c.MustAdd("lo", netlist.TieLo)
	cases := []struct {
		ty    netlist.GateType
		fanin []netlist.GateID
		want  uint64
	}{
		{netlist.And, nil, ones},
		{netlist.Nand, nil, 0},
		{netlist.Or, nil, 0},
		{netlist.Nor, nil, ones},
		{netlist.Xor, nil, 0},
		{netlist.Xnor, nil, ones},
		{netlist.And, []netlist.GateID{a}, av},
		{netlist.Nand, []netlist.GateID{a}, 0x5555555555555555},
		{netlist.Or, []netlist.GateID{a}, av},
		{netlist.Nor, []netlist.GateID{a}, 0x5555555555555555},
		{netlist.Xor, []netlist.GateID{a}, av},
		{netlist.Xnor, []netlist.GateID{a}, 0x5555555555555555},
		{netlist.And, []netlist.GateID{a, b}, 0x8888888888888888},
		{netlist.Nand, []netlist.GateID{a, b}, 0x7777777777777777},
		{netlist.Or, []netlist.GateID{a, b}, 0xeeeeeeeeeeeeeeee},
		{netlist.Nor, []netlist.GateID{a, b}, 0x1111111111111111},
		{netlist.Xor, []netlist.GateID{a, b}, 0x6666666666666666},
		{netlist.Xnor, []netlist.GateID{a, b}, 0x9999999999999999},
		{netlist.And, []netlist.GateID{a, b, s}, 0x8080808080808080},
		{netlist.Nand, []netlist.GateID{a, b, s}, 0x7f7f7f7f7f7f7f7f},
		{netlist.Or, []netlist.GateID{a, b, s}, 0xfefefefefefefefe},
		{netlist.Nor, []netlist.GateID{a, b, s}, 0x0101010101010101},
		{netlist.Xor, []netlist.GateID{a, b, s}, 0x9696969696969696},
		{netlist.Xnor, []netlist.GateID{a, b, s}, 0x6969696969696969},
		{netlist.Not, []netlist.GateID{a}, 0x5555555555555555},
		{netlist.Buf, []netlist.GateID{b}, bv},
		{netlist.Mux, []netlist.GateID{s, a, b}, 0xcacacacacacacaca},
	}
	ids := []netlist.GateID{a, b, s, q, hi, lo}
	for i, tc := range cases {
		// AddGate enforces the netlist arity rules; the degenerate
		// arities are set on the gate afterwards.
		fan := tc.fanin
		if len(fan) < 2 && tc.ty != netlist.Not && tc.ty != netlist.Buf {
			fan = []netlist.GateID{a, b}
		}
		id := c.MustAdd(fmt.Sprintf("g%d", i), tc.ty, fan...)
		c.Gate(id).Fanin = tc.fanin
		ids = append(ids, id)
	}
	k, err := CompileCone(c, ids)
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]uint64, c.NumIDs())
	nets[a], nets[b], nets[s] = av, bv, sv
	nets[q], nets[hi], nets[lo] = junk, junk, junk
	k.Eval(nets)
	for _, src := range []netlist.GateID{q, hi, lo} {
		if nets[src] != junk {
			t.Errorf("source %s: got %016x, want its buffer value %016x", c.Gate(src).Name, nets[src], uint64(junk))
		}
	}
	for i, tc := range cases {
		if got := nets[ids[6+i]]; got != tc.want {
			t.Errorf("%v with %d fanins: got %016x want %016x", tc.ty, len(tc.fanin), got, tc.want)
		}
	}
}

func TestActivityBounds(t *testing.T) {
	c := c17(t)
	act, err := ActivityOpt(c, ActivityOptions{Patterns: 4096, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range act {
		if a < 0 || a > 0.5+1e-9 {
			t.Fatalf("activity[%d] = %v out of [0, 0.5]", i, a)
		}
	}
	// A NAND of two random inputs has p(1)=0.75 → activity 0.375.
	u8 := c.GateByName("U8")
	if act[u8] < 0.3 || act[u8] > 0.45 {
		t.Errorf("NAND activity = %v, want ≈0.375", act[u8])
	}
}

// Property: XOR chains computed by the evaluator equal word-level
// parity for arbitrary operand words.
func TestXorParityProperty(t *testing.T) {
	f := func(ws [4]uint64) bool {
		c := netlist.New("p")
		ids := make([]netlist.GateID, 4)
		for i := range ids {
			ids[i] = c.MustAdd("", netlist.Input)
		}
		x := c.MustAdd("x", netlist.Xor, ids...)
		c.MustAdd("o", netlist.Output, x)
		e, err := NewEvaluator(c)
		if err != nil {
			return false
		}
		nets := e.NewNetBuffer()
		e.Eval(ws[:], nil, nets)
		want := ws[0] ^ ws[1] ^ ws[2] ^ ws[3]
		return nets[x] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: HD of a circuit against itself with one output inverted is
// exactly 1/numOutputs and OER is 1.
func TestInvertedOutputProperty(t *testing.T) {
	c := c17(t)
	mod := c.Clone()
	o := mod.Outputs()[0]
	drv := mod.Gate(o).Fanin[0]
	inv := mod.MustAdd("inv_out", netlist.Not, drv)
	if err := mod.SetFanin(o, 0, inv); err != nil {
		t.Fatal(err)
	}
	d, err := Compare(c, mod, CompareOptions{Patterns: 2048, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if d.OER != 1 {
		t.Fatalf("OER = %v, want 1", d.OER)
	}
	if d.HD != 0.5 {
		t.Fatalf("HD = %v, want 0.5 (1 of 2 outputs always wrong)", d.HD)
	}
}

func TestPopcountSanity(t *testing.T) {
	// Guard against regressions in how we count HD bits.
	if bits.OnesCount64(^uint64(0)) != 64 {
		t.Fatal("stdlib popcount broken?!")
	}
}
