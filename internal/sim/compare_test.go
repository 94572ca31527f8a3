package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// observeCircuit builds a random circuit on a fixed boundary (inputs
// i0..i4, flip-flops q0..q2, outputs o0..o5), so circuits from
// different seeds can be compared. Besides random logic it has what
// observed-cone compilation must get right: outputs driven straight by
// an input, a TIE cell and a flip-flop Q; a flip-flop (q2) whose D cone
// nothing else reads, so it is simulated only when state is observed;
// and dangling gates that feed nothing. With nGates = 0 every output
// and D pin is driven by a source.
func observeCircuit(tb testing.TB, seed uint64, nGates int) *netlist.Circuit {
	tb.Helper()
	rng := NewRand(seed)
	c := netlist.New(fmt.Sprintf("obs%d", seed))
	var srcs []netlist.GateID
	for i := 0; i < 5; i++ {
		srcs = append(srcs, c.MustAdd(fmt.Sprintf("i%d", i), netlist.Input))
	}
	var ffs []netlist.GateID
	for i := 0; i < 3; i++ {
		ffs = append(ffs, c.MustAdd(fmt.Sprintf("q%d", i), netlist.DFF, srcs[0]))
	}
	srcs = append(srcs, ffs...)
	ties := []netlist.GateID{c.MustAdd("th", netlist.TieHi), c.MustAdd("tl", netlist.TieLo)}
	srcs = append(srcs, ties...)
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	ids := append([]netlist.GateID(nil), srcs...)
	pick := func() netlist.GateID { return ids[rng.Intn(len(ids))] }
	gate := func(name string) netlist.GateID {
		switch rng.Intn(4) {
		case 0:
			return c.MustAdd(name, netlist.Not, pick())
		case 1:
			return c.MustAdd(name, netlist.Mux, pick(), pick(), pick())
		default:
			fan := []netlist.GateID{pick(), pick()}
			if rng.Intn(3) == 0 {
				fan = append(fan, pick())
			}
			return c.MustAdd(name, types[rng.Intn(len(types))], fan...)
		}
	}
	for i := 0; i < nGates; i++ {
		ids = append(ids, gate(fmt.Sprintf("g%d", i)))
	}
	logic := ids[len(srcs):]
	last := func(k int) netlist.GateID {
		if nGates == 0 {
			return srcs[(int(seed)+k)%len(srcs)]
		}
		return logic[len(logic)-1-k%nGates]
	}
	// q2's D cone is built after every other gate, so nothing else
	// reads it.
	d2 := last(2)
	if nGates > 0 {
		for i := 0; i < 4; i++ {
			ids = append(ids, gate(fmt.Sprintf("d%d", i)))
		}
		d2 = ids[len(ids)-1]
	}
	for i, d := range []netlist.GateID{last(0), srcs[1], d2} {
		if err := c.SetFanin(ffs[i], 0, d); err != nil {
			tb.Fatal(err)
		}
	}
	outs := []netlist.GateID{
		last(0), last(1), last(3),
		srcs[rng.Intn(5)], ties[rng.Intn(2)], ffs[rng.Intn(2)],
	}
	for k, d := range outs {
		c.MustAdd(fmt.Sprintf("o%d", k), netlist.Output, d)
	}
	// Dangling logic: gates no output or flip-flop reads.
	if nGates > 0 {
		for i := 0; i < 5; i++ {
			ids = append(ids, gate(fmt.Sprintf("x%d", i)))
		}
	}
	return c
}

// fullCompare is the reference for Compare: it simulates every gate of
// both circuits with full-circuit Evaluators, one 64-pattern word at a
// time, and reads the observables from the whole net buffers.
func fullCompare(tb testing.TB, a, b *netlist.Circuit, opt CompareOptions) DiffStats {
	tb.Helper()
	ea, err := NewEvaluator(a)
	if err != nil {
		tb.Fatal(err)
	}
	eb, err := NewEvaluator(b)
	if err != nil {
		tb.Fatal(err)
	}
	names := func(c *netlist.Circuit, ids []netlist.GateID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = c.Gate(id).Name
		}
		return out
	}
	inMap, err := matchByName(names(a, a.Inputs()), names(b, b.Inputs()), b.Name, "input")
	if err != nil {
		tb.Fatal(err)
	}
	stMap, err := matchByName(names(a, a.DFFs()), names(b, b.DFFs()), b.Name, "flip-flop")
	if err != nil {
		tb.Fatal(err)
	}
	words := (opt.Patterns + 63) / 64
	stride := uint64(len(a.Inputs()) + len(a.DFFs()))
	inA, inB := make([]uint64, len(inMap)), make([]uint64, len(inMap))
	stA, stB := make([]uint64, len(stMap)), make([]uint64, len(stMap))
	netsA, netsB := ea.NewNetBuffer(), eb.NewNetBuffer()
	obsBits := len(a.Outputs())
	if opt.ObserveState {
		obsBits += len(stMap)
	}
	var hd, errs int
	for wd := 0; wd < words; wd++ {
		rng := NewRandAt(opt.Seed, uint64(wd)*stride)
		rng.Fill(inA)
		rng.Fill(stA)
		for i, j := range inMap {
			inB[j] = inA[i]
		}
		for i, j := range stMap {
			stB[j] = stA[i]
		}
		ea.Eval(inA, stA, netsA)
		eb.Eval(inB, stB, netsB)
		oa, ob := ea.OutputWords(netsA, nil), eb.OutputWords(netsB, nil)
		var any uint64
		for i := range oa {
			hd += bits.OnesCount64(oa[i] ^ ob[i])
			any |= oa[i] ^ ob[i]
		}
		if opt.ObserveState {
			na, nb := ea.NextStateWords(netsA, nil), eb.NextStateWords(netsB, nil)
			for i, j := range stMap {
				hd += bits.OnesCount64(na[i] ^ nb[j])
				any |= na[i] ^ nb[j]
			}
		}
		errs += bits.OnesCount64(any)
	}
	total := words * 64
	return DiffStats{
		Patterns: total,
		HD:       float64(hd) / float64(total*obsBits),
		OER:      float64(errs) / float64(total),
	}
}

func TestCompareObservedConesMatchFull(t *testing.T) {
	type pair struct {
		name string
		a, b *netlist.Circuit
	}
	var pairs []pair
	for _, seed := range []uint64{1, 2, 3} {
		a := observeCircuit(t, seed, 60)
		pairs = append(pairs,
			pair{fmt.Sprintf("random/%d", seed), a, observeCircuit(t, seed+100, 60)},
			pair{fmt.Sprintf("self/%d", seed), a, observeCircuit(t, seed, 60)})
	}
	pairs = append(pairs, pair{"all-source", observeCircuit(t, 4, 0), observeCircuit(t, 5, 0)})
	for _, p := range pairs {
		full, err := NewEvaluator(p.a)
		if err != nil {
			t.Fatal(err)
		}
		opsByObserve := map[bool]int{}
		for _, observe := range []bool{false, true} {
			// 10 words leave a partial wide word at widths 4 and 8.
			opt := CompareOptions{Patterns: 10 * 64, Seed: 7, ObserveState: observe}
			want := fullCompare(t, p.a, p.b, opt)
			planOps := -1
			for _, w := range Widths {
				for _, workers := range []int{1, 2} {
					opt.Width, opt.Workers = w, workers
					got, err := Compare(p.a, p.b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if planOps < 0 {
						planOps = got.PlanOps
					}
					if got.PlanOps != planOps {
						t.Fatalf("%s observe=%v width %d workers %d: PlanOps %d, want %d at every setting",
							p.name, observe, w, workers, got.PlanOps, planOps)
					}
					got.PlanOps = 0
					if got != want {
						t.Fatalf("%s observe=%v width %d workers %d: %+v, full evaluation gives %+v",
							p.name, observe, w, workers, got, want)
					}
				}
			}
			if strings.HasPrefix(p.name, "random/") && want.OER == 0 {
				t.Fatalf("%s observe=%v: the circuits never differ, so the check is vacuous", p.name, observe)
			}
			opsByObserve[observe] = planOps
		}
		// Dangling gates are never compiled, and q2's D cone only when
		// state is observed.
		if strings.HasPrefix(p.name, "self/") {
			if n := opsByObserve[true]; n >= 2*len(full.ops) {
				t.Fatalf("%s: PlanOps %d with state observed, want fewer than two full plans (%d)", p.name, n, 2*len(full.ops))
			}
			if opsByObserve[false] >= opsByObserve[true] {
				t.Fatalf("%s: PlanOps %d without state, want fewer than the %d with it",
					p.name, opsByObserve[false], opsByObserve[true])
			}
		}
	}
}

func TestCompareRejectsUnobservedCycle(t *testing.T) {
	a := observeCircuit(t, 1, 30)
	b := observeCircuit(t, 1, 30)
	// A combinational loop that no output or flip-flop reads.
	i0 := b.GateByName("i0")
	l1 := b.MustAdd("loop1", netlist.And, i0, i0)
	l2 := b.MustAdd("loop2", netlist.Or, l1, i0)
	if err := b.SetFanin(l1, 1, l2); err != nil {
		t.Fatal(err)
	}
	_, topoErr := b.TopoOrder()
	if topoErr == nil {
		t.Fatal("the loop was not detected by TopoOrder")
	}
	want := fmt.Sprintf("sim: compiling %s: %v", b.Name, topoErr)
	for _, observe := range []bool{false, true} {
		_, err := Compare(a, b, CompareOptions{Patterns: 64, ObserveState: observe})
		if err == nil || err.Error() != want {
			t.Fatalf("observe=%v: got error %v, want %q", observe, err, want)
		}
		if !strings.Contains(err.Error(), "combinational cycle") {
			t.Fatalf("observe=%v: error %q does not name the cycle", observe, err)
		}
	}
}

// gate2 is a two-input circuit a, b → o whose one gate has type typ;
// circuits of different types share their boundary.
func gate2(typ netlist.GateType) *netlist.Circuit {
	c := netlist.New(typ.String())
	a := c.MustAdd("a", netlist.Input)
	b := c.MustAdd("b", netlist.Input)
	c.MustAdd("o", netlist.Output, c.MustAdd("g", typ, a, b))
	return c
}

// TestPatternCountAboveLimitRejected: a pattern count above MaxPatterns
// is an error for every simulation entry point. Near math.MaxInt the
// count used to round up to zero words, so AND2 and OR2 compared
// equivalent, with HD = OER = -0, without a single pattern simulated.
func TestPatternCountAboveLimitRejected(t *testing.T) {
	and2, or2 := gate2(netlist.And), gate2(netlist.Or)
	for _, n := range []int{MaxPatterns + 1, math.MaxInt - 62, math.MaxInt} {
		if eq, err := EquivalentOpt(and2, or2, CompareOptions{Patterns: n}); err == nil {
			t.Errorf("EquivalentOpt with %d patterns = %v, want an error", n, eq)
		}
		if d, err := Compare(and2, or2, CompareOptions{Patterns: n}); err == nil {
			t.Errorf("Compare with %d patterns = %+v, want an error", n, d)
		}
		e, err := NewEvaluator(and2)
		if err != nil {
			t.Fatal(err)
		}
		if eq, err := e.EquivalentEdit(&Edit{Cone: &Cone{}}, n, 1); err == nil {
			t.Errorf("EquivalentEdit with %d patterns = %v, want an error", n, eq)
		}
		if _, err := ActivityOpt(and2, ActivityOptions{Patterns: n}); err == nil {
			t.Errorf("ActivityOpt with %d patterns succeeded, want an error", n)
		}
	}
	if eq, err := EquivalentOpt(and2, or2, CompareOptions{Patterns: 4096}); err != nil || eq {
		t.Fatalf("AND2 vs OR2 at 4096 patterns = %v, %v; want false, nil", eq, err)
	}
}

// Reference is a circuit compiled once for repeated equivalence checks
// against it, each trial compiled whole: the test oracle that
// EquivalentEdit is held to.
type Reference struct{ s *side }

// NewReference compiles c as an equivalence reference. Later edits to
// c do not affect the Reference.
func NewReference(c *netlist.Circuit) (*Reference, error) {
	s, err := prepareSide(c, true)
	if err != nil {
		return nil, err
	}
	return &Reference{s: s}, nil
}

// Equivalent is EquivalentOpt(ref, b, CompareOptions{Patterns:
// patterns, Seed: seed}), where ref is the circuit the Reference was
// compiled from: the same stimulus, the same
// observables and the same answer. It also returns b compiled as a
// Reference (nil on error).
func (r *Reference) Equivalent(b *netlist.Circuit, patterns int, seed uint64) (bool, *Reference, error) {
	pb, err := prepareSide(b, true)
	if err != nil {
		return false, nil, err
	}
	d, err := compareSides(r.s, pb, CompareOptions{Patterns: patterns, Seed: seed, ObserveState: true})
	if err != nil {
		return false, nil, err
	}
	return d.OER == 0, &Reference{s: pb}, nil
}

// TestEquivalentEditMatchesReference holds EquivalentEdit to the
// whole-circuit comparison on random in-place edits: a new gate takes
// over some or all sinks of an existing one, either as a buffer of it
// (equivalent) or as a random function of earlier nets (usually not),
// and flip-flop D pins among the sinks move with it.
func TestEquivalentEditMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := uint64(1); seed <= 120; seed++ {
		c := randCircuit(t, seed, 60)
		rng := NewRand(seed * 7)
		e, err := NewEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReference(c)
		if err != nil {
			t.Fatal(err)
		}
		// A combinational gate with sinks; IDs are topological here.
		var g netlist.GateID
		for {
			g = netlist.GateID(rng.Intn(c.NumIDs()))
			if ty := c.Gate(g).Type; !ty.IsSource() && ty != netlist.Output && c.FanoutCount(g) > 0 {
				break
			}
		}
		n0 := c.NumIDs()
		c.Checkpoint()
		var h netlist.GateID
		if seed%3 == 0 {
			h = c.MustAdd("", netlist.Buf, g)
		} else {
			h = c.MustAdd("", netlist.Xor, netlist.GateID(rng.Intn(int(g))), netlist.GateID(rng.Intn(int(g))))
		}
		sinks := slices.Clone(c.Fanouts(g))
		var ed Edit
		inCone := map[netlist.GateID]bool{h: true}
		observed := map[netlist.GateID]bool{}
		for i, s := range sinks {
			if s == h || (i > 0 && seed%2 == 0) {
				continue
			}
			c.ReplaceFanin(s, g, h)
			if c.Gate(s).Type == netlist.DFF {
				observed[s] = true
				ed.Observed = append(ed.Observed, NetPair{Before: g, After: h})
			} else {
				inCone[s] = true
			}
		}
		// The forward cone, in the edited circuit's topological order.
		order, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		var ids []netlist.GateID
		for _, id := range order {
			if !inCone[id] {
				continue
			}
			ids = append(ids, id)
			if c.Gate(id).Type == netlist.Output {
				ed.Observed = append(ed.Observed, NetPair{Before: id, After: id})
			}
			for _, s := range c.Fanouts(id) {
				if c.Gate(s).Type != netlist.DFF {
					inCone[s] = true
				} else if !observed[s] {
					observed[s] = true
					ed.Observed = append(ed.Observed, NetPair{Before: id, After: id})
				}
			}
		}
		ed.Cone = new(Cone)
		if err := ed.Cone.Recompile(c, ids); err != nil {
			t.Fatal(err)
		}
		for _, patterns := range []int{64, 300, 4096} {
			got, err := e.EquivalentEdit(&ed, patterns, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := ref.Equivalent(c.Clone(), patterns, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d, %d patterns: EquivalentEdit = %v, whole-circuit comparison %v", seed, patterns, got, want)
			}
			verdicts[got]++
		}
		c.Rollback()
		if c.NumIDs() != n0 {
			t.Fatal("rollback left new gates")
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: want both", verdicts)
	}
}
