package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/netlist"
)

// randCircuit builds a deterministic pseudo-random circuit exercising
// every opcode the plan compiler emits: 1-input, 2-input and N-ary
// gates, muxes, ties, and a couple of flip-flops.
func randCircuit(tb testing.TB, seed uint64, nGates int) *netlist.Circuit {
	tb.Helper()
	rng := NewRand(seed)
	c := netlist.New(fmt.Sprintf("rnd%d", seed))
	var ids []netlist.GateID
	nIn := 4 + rng.Intn(5)
	for i := 0; i < nIn; i++ {
		ids = append(ids, c.MustAdd(fmt.Sprintf("i%d", i), netlist.Input))
	}
	var dffs []netlist.GateID
	for i := 0; i < 2; i++ {
		q := c.MustAdd(fmt.Sprintf("q%d", i), netlist.DFF, ids[0])
		dffs = append(dffs, q)
		ids = append(ids, q)
	}
	ids = append(ids, c.MustAdd("th", netlist.TieHi), c.MustAdd("tl", netlist.TieLo))
	// Fanin count per type; 0 draws 2..4 fanins, which covers both the
	// inlined 2-input opcodes and the N-ary fanin-pool fallback.
	types := []struct {
		ty    netlist.GateType
		fanin int
	}{
		{netlist.And, 0}, {netlist.Nand, 0}, {netlist.Or, 0}, {netlist.Nor, 0},
		{netlist.Xor, 0}, {netlist.Xnor, 0}, {netlist.Not, 1}, {netlist.Buf, 1},
		{netlist.Mux, 3},
	}
	pick := func() netlist.GateID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < nGates; i++ {
		ty := types[rng.Intn(len(types))]
		n := ty.fanin
		if n == 0 {
			n = 2 + rng.Intn(3)
		}
		var fan []netlist.GateID
		for k := 0; k < n; k++ {
			fan = append(fan, pick())
		}
		ids = append(ids, c.MustAdd(fmt.Sprintf("g%d", i), ty.ty, fan...))
	}
	for i, q := range dffs {
		if err := c.SetFanin(q, 0, ids[len(ids)-1-i]); err != nil {
			tb.Fatal(err)
		}
	}
	nOut := 3
	if nOut > nGates {
		nOut = nGates
	}
	for k := 0; k < nOut; k++ {
		c.MustAdd(fmt.Sprintf("o%d", k), netlist.Output, ids[len(ids)-1-k])
	}
	return c
}

// checkWideMatchesSerial asserts every net of every lane is
// bit-identical between the wide kernel and the 64-bit reference.
func checkWideMatchesSerial(tb testing.TB, c *netlist.Circuit, w, words int, seed uint64) {
	tb.Helper()
	e, err := NewEvaluator(c)
	if err != nil {
		tb.Fatal(err)
	}
	stride := uint64(len(c.Inputs()) + len(c.DFFs()))
	ref := make([][]uint64, words)
	in := make([]uint64, len(c.Inputs()))
	st := make([]uint64, len(c.DFFs()))
	for wd := 0; wd < words; wd++ {
		rng := NewRandAt(seed, uint64(wd)*stride)
		rng.Fill(in)
		rng.Fill(st)
		nets := e.NewNetBuffer()
		e.Eval(in, st, nets)
		ref[wd] = nets
	}
	inW := make([]uint64, len(c.Inputs())*w)
	stW := make([]uint64, len(c.DFFs())*w)
	netsW := e.NewWideNetBuffer(w)
	for base := 0; base < words; base += w {
		rng := NewWideRandAt(seed, uint64(base), stride, w)
		rng.FillWide(inW)
		rng.FillWide(stW)
		e.EvalWide(w, inW, stW, netsW)
		for k := 0; k < w && base+k < words; k++ {
			for id, want := range ref[base+k] {
				if got := netsW[id*w+k]; got != want {
					tb.Fatalf("width %d word %d net %d: got %016x want %016x",
						w, base+k, id, got, want)
				}
			}
		}
	}
}

func TestEvalWideMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		c := randCircuit(t, seed, 200)
		for _, w := range Widths {
			// 10 words is not a multiple of 4 or 8, so the trailing
			// partial wide word is exercised too.
			checkWideMatchesSerial(t, c, w, 10, seed*3+1)
		}
	}
}

func TestWideRandReproducesSerialStream(t *testing.T) {
	const seed, stride, base, n = 99, 7, 5, 6
	for _, w := range Widths {
		wr := NewWideRandAt(seed, base, stride, w)
		dst := make([]uint64, n*w)
		wr.FillWide(dst)
		for k := 0; k < w; k++ {
			sr := NewRandAt(seed, (base+uint64(k))*stride)
			for i := 0; i < n; i++ {
				if got, want := dst[i*w+k], sr.Word(); got != want {
					t.Fatalf("width %d lane %d word %d: got %016x want %016x", w, k, i, got, want)
				}
			}
		}
	}
}

func TestCompareWidthWorkerGrid(t *testing.T) {
	a := c17(t)
	// One gate differs (U11 takes I1 instead of U9): nonzero HD/OER.
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
U11 = NAND(I1, I5)
U12 = NAND(U8, U10)
U13 = NAND(U10, U11)
`
	b, err := netlist.ParseBenchString(src, "c17x")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Compare(a, b, CompareOptions{Patterns: 640, Seed: 3, Workers: 1, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.HD == 0 || baseline.OER == 0 {
		t.Fatalf("expected a functional difference, got %+v", baseline)
	}
	for _, w := range []int{0, 1, 4, 8} {
		for _, workers := range []int{1, 2, 3, 8} {
			d, err := Compare(a, b, CompareOptions{Patterns: 640, Seed: 3, Workers: workers, Width: w})
			if err != nil {
				t.Fatal(err)
			}
			if d != baseline {
				t.Fatalf("width %d workers %d: %+v != baseline %+v", w, workers, d, baseline)
			}
		}
	}
}

func TestCompareRandomCircuitWidthInvariance(t *testing.T) {
	a := randCircuit(t, 11, 150)
	b := randCircuit(t, 11, 150)
	// Same seed builds an identical circuit; Compare against itself
	// must report zero at every width, including the partial-word tail
	// (e.g. 5 words at width 4 and 8).
	for _, patterns := range []int{5 * 64, 9 * 64, 1024} {
		for _, w := range []int{1, 4, 8} {
			d, err := Compare(a, b, CompareOptions{Patterns: patterns, Seed: 5, Width: w, ObserveState: true})
			if err != nil {
				t.Fatal(err)
			}
			if d.HD != 0 || d.OER != 0 {
				t.Fatalf("width %d patterns %d: identical circuits diff: %+v", w, patterns, d)
			}
		}
	}
}

func TestCompareRejectsBadWidth(t *testing.T) {
	a := c17(t)
	if _, err := Compare(a, a, CompareOptions{Width: 3}); err == nil {
		t.Fatal("expected an error for width 3")
	}
}

func TestActivityWidthAndWorkerInvariance(t *testing.T) {
	c := randCircuit(t, 21, 120)
	base, err := activityOpt(c, ActivityOptions{Patterns: 640, Seed: 9}, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 4, 8} {
		for _, workers := range []int{1, 3} {
			act, err := activityOpt(c, ActivityOptions{Patterns: 640, Seed: 9}, workers, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range act {
				if act[i] != base[i] {
					t.Fatalf("width %d workers %d net %d: %v != %v", w, workers, i, act[i], base[i])
				}
			}
		}
	}
}

func TestActivityStopPropagatesError(t *testing.T) {
	c := randCircuit(t, 31, 50)
	var stop atomic.Bool
	stop.Store(true)
	_, err := activityOpt(c, ActivityOptions{Patterns: 1 << 16, Seed: 1}, 0, 0, &stop)
	if !errors.Is(err, engine.ErrStopped) {
		t.Fatalf("got %v, want engine.ErrStopped", err)
	}
}

func TestConeDeepChain(t *testing.T) {
	// A 100001-deep inverter chain compiles into one flat plan: no
	// recursion anywhere on the cone's path.
	c := netlist.New("deep")
	in := c.MustAdd("i", netlist.Input)
	prev := in
	const depth = 100001
	chain := make([]netlist.GateID, 0, depth)
	for i := 0; i < depth; i++ {
		prev = c.MustAdd(fmt.Sprintf("n%d", i), netlist.Not, prev)
		chain = append(chain, prev)
	}
	c.MustAdd("o", netlist.Output, prev)
	var k Cone
	if err := k.Recompile(c, chain); err != nil {
		t.Fatal(err)
	}
	nets := make([]uint64, c.NumIDs())
	nets[in] = 0b10 // pattern 0: in=0, pattern 1: in=1
	k.Eval(nets)
	// Odd depth: the chain computes NOT(in).
	if got := nets[prev] & 0b11; got != 0b01 {
		t.Fatalf("chain output = %02b, want 01", got)
	}
}

func TestAutoWidth(t *testing.T) {
	cases := []struct{ words, want int }{
		{1, 1}, {3, 1}, {4, 4}, {7, 4}, {8, 8}, {1024, 8},
	}
	for _, tc := range cases {
		if got := AutoWidth(tc.words); got != tc.want {
			t.Errorf("AutoWidth(%d) = %d, want %d", tc.words, got, tc.want)
		}
	}
}

// checkConeKeepsEvalBuffer asserts that re-evaluating topologically
// ordered cones over a full Eval buffer changes no net: every gate's
// word already agrees with its fanins, and sources keep their value.
func checkConeKeepsEvalBuffer(tb testing.TB, c *netlist.Circuit, seed uint64) {
	tb.Helper()
	e, err := NewEvaluator(c)
	if err != nil {
		tb.Fatal(err)
	}
	order, err := c.TopoOrder()
	if err != nil {
		tb.Fatal(err)
	}
	rng := NewRand(seed)
	in := make([]uint64, len(c.Inputs()))
	st := make([]uint64, len(c.DFFs()))
	rng.Fill(in)
	rng.Fill(st)
	nets := e.NewNetBuffer()
	e.Eval(in, st, nets)
	want := slices.Clone(nets)
	for trial := 0; trial < 4; trial++ {
		// Trial 0 takes the whole order; the others a random subset of
		// it, which is still topologically ordered.
		var ids []netlist.GateID
		for _, id := range order {
			if trial == 0 || rng.Word()&1 == 1 {
				ids = append(ids, id)
			}
		}
		var k Cone
		if err := k.Recompile(c, ids); err != nil {
			tb.Fatal(err)
		}
		k.Eval(nets)
		for id := range want {
			if nets[id] != want[id] {
				tb.Fatalf("trial %d: net %d (%v) changed from %016x to %016x",
					trial, id, c.Gate(netlist.GateID(id)).Type, want[id], nets[id])
			}
		}
	}
}

// FuzzSimWide cross-checks the width-specialized kernels against the
// 64-bit reference on fuzzer-shaped circuits: every net of every lane
// must be bit-identical at each supported width, and compiled cones
// must agree with the full plan.
func FuzzSimWide(f *testing.F) {
	f.Add(uint64(1), uint8(10))
	f.Add(uint64(42), uint8(100))
	f.Add(uint64(0xdeadbeef), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, nGates uint8) {
		c := randCircuit(t, seed, int(nGates)+1)
		for _, w := range Widths {
			checkWideMatchesSerial(t, c, w, 9, seed^0xa5a5)
		}
		checkConeKeepsEvalBuffer(t, c, seed^0x5a5a)
		checkPlanMatchesGateReference(t, c, seed^0x3c3c)
	})
}

// refEval is a per-gate reference interpreter that shares nothing with
// the plan compiler or the kernel: it walks the circuit's topological
// order and evaluates each gate straight from its netlist type, one
// 64-pattern word per net.
func refEval(tb testing.TB, c *netlist.Circuit, in, st []uint64) []uint64 {
	tb.Helper()
	order, err := c.TopoOrder()
	if err != nil {
		tb.Fatal(err)
	}
	src := map[netlist.GateID]uint64{}
	for i, id := range c.Inputs() {
		src[id] = in[i]
	}
	for i, id := range c.DFFs() {
		src[id] = st[i]
	}
	nets := make([]uint64, c.NumIDs())
	for _, id := range order {
		g := c.Gate(id)
		var v uint64
		switch g.Type {
		case netlist.Input, netlist.DFF:
			v = src[id]
		case netlist.TieHi:
			v = ^uint64(0)
		case netlist.TieLo:
			v = 0
		case netlist.Buf, netlist.Output:
			v = nets[g.Fanin[0]]
		case netlist.Not:
			v = ^nets[g.Fanin[0]]
		case netlist.Mux:
			s, d0, d1 := nets[g.Fanin[0]], nets[g.Fanin[1]], nets[g.Fanin[2]]
			v = (^s & d0) | (s & d1)
		case netlist.And, netlist.Nand:
			v = ^uint64(0)
			for _, f := range g.Fanin {
				v &= nets[f]
			}
			if g.Type == netlist.Nand {
				v = ^v
			}
		case netlist.Or, netlist.Nor:
			for _, f := range g.Fanin {
				v |= nets[f]
			}
			if g.Type == netlist.Nor {
				v = ^v
			}
		case netlist.Xor, netlist.Xnor:
			for _, f := range g.Fanin {
				v ^= nets[f]
			}
			if g.Type == netlist.Xnor {
				v = ^v
			}
		default:
			tb.Fatalf("refEval: gate %d has type %v", id, g.Type)
		}
		nets[id] = v
	}
	return nets
}

// checkPlanMatchesGateReference asserts that the compiled kernel agrees
// with refEval on every live net, at every width and through
// Cone.Eval. Net buffers start out as garbage, so an op that runs
// before one of its fanins reads a wrong value and fails the check.
func checkPlanMatchesGateReference(tb testing.TB, c *netlist.Circuit, seed uint64) {
	tb.Helper()
	e, err := NewEvaluator(c)
	if err != nil {
		tb.Fatal(err)
	}
	order, err := c.TopoOrder()
	if err != nil {
		tb.Fatal(err)
	}
	const words = 9
	stride := uint64(len(c.Inputs()) + len(c.DFFs()))
	ref := make([][]uint64, words)
	for wd := range ref {
		rng := NewRandAt(seed, uint64(wd)*stride)
		in := make([]uint64, len(c.Inputs()))
		st := make([]uint64, len(c.DFFs()))
		rng.Fill(in)
		rng.Fill(st)
		ref[wd] = refEval(tb, c, in, st)
	}
	junk := NewRand(seed ^ 0xfeed)
	for _, w := range Widths {
		inW := make([]uint64, len(c.Inputs())*w)
		stW := make([]uint64, len(c.DFFs())*w)
		netsW := e.NewWideNetBuffer(w)
		for base := 0; base < words; base += w {
			rng := NewWideRandAt(seed, uint64(base), stride, w)
			rng.FillWide(inW)
			rng.FillWide(stW)
			junk.Fill(netsW)
			e.EvalWide(w, inW, stW, netsW)
			for k := 0; k < w && base+k < words; k++ {
				for _, id := range order {
					if got, want := netsW[int(id)*w+k], ref[base+k][id]; got != want {
						tb.Fatalf("width %d word %d net %d (%v): got %016x want %016x",
							w, base+k, id, c.Gate(id).Type, got, want)
					}
				}
			}
		}
	}
	// Cones over the whole order and over random subsets of it: the
	// cone's own nets start as garbage, every other net holds its
	// reference value, and Eval must restore the reference everywhere.
	for trial := 0; trial < 4; trial++ {
		var ids []netlist.GateID
		for _, id := range order {
			if trial == 0 || junk.Word()&1 == 1 {
				ids = append(ids, id)
			}
		}
		var k Cone
		if err := k.Recompile(c, ids); err != nil {
			tb.Fatal(err)
		}
		for wd := range ref {
			nets := slices.Clone(ref[wd])
			for _, id := range ids {
				if !c.Gate(id).Type.IsSource() {
					nets[id] = junk.Word()
				}
			}
			k.Eval(nets)
			for _, id := range order {
				if nets[id] != ref[wd][id] {
					tb.Fatalf("cone trial %d word %d net %d (%v): got %016x want %016x",
						trial, wd, id, c.Gate(id).Type, nets[id], ref[wd][id])
				}
			}
		}
	}
}

func TestPlanMatchesGateReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99} {
		for _, n := range []int{1, 20, 300} {
			checkPlanMatchesGateReference(t, randCircuit(t, seed, n), seed*5+3)
		}
	}
}
