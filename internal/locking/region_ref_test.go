package locking

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bmarks"
	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// This file keeps the region analysis as it was before it moved onto
// the analyzer's dense, reused scratch: map-based sets, a growForward
// that recounts the whole region's support for every sink it admits,
// and an expandAgainstDC that enumerates every minterm of each trial
// cube. It is the reference the differential tests hold the analyzer
// to, field by field.

// refScratch returns the topoPos and net-buffer arguments of the
// reference analysis for c.
func refScratch(t *testing.T, c *netlist.Circuit) (topoPos []int32, nets []uint64) {
	t.Helper()
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	topoPos = make([]int32, c.NumIDs())
	for i := range topoPos {
		topoPos[i] = -1
	}
	for i, id := range order {
		topoPos[id] = int32(i)
	}
	return topoPos, make([]uint64, c.NumIDs())
}

// analyzeRegionRef evaluates one fault candidate; it returns nil when the
// candidate violates a bound or needs more than budget key bits (the
// caller rejects such a region anyway). topoPos maps a gate to its
// index in the circuit's current topological order (-1 when it has
// none) and nets is a NumIDs-sized scratch buffer (both hoisted by the
// caller across the candidate scan).
func analyzeRegionRef(c *netlist.Circuit, f atpg.Fault, opt regionOptions, budget int, topoPos []int32, nets []uint64) *region {
	g := c.Gate(f.Net)
	if g.Type.IsSource() || g.Type == netlist.Output || g.DontTouch {
		return nil
	}
	regionSet, backSupport := growBackwardRef(c, f.Net, opt)
	if regionSet == nil {
		return nil
	}
	// Most candidates fail on their activation set, which the backward
	// region already fixes: reject those before the far costlier
	// forward growth and trim loop.
	if kb := backwardKeyBitsRef(c, f, regionSet, backSupport, opt, topoPos, nets); kb <= 0 || kb > budget {
		return nil
	}
	return analyzeGrownRef(c, f, opt, regionSet, topoPos, nets)
}

// analyzeGrownRef is analyzeRegionRef after the backward region is chosen:
// it grows the forward shadow into regionSet, settles the boundary and
// costs the transformation.
func analyzeGrownRef(c *netlist.Circuit, f atpg.Fault, opt regionOptions, regionSet map[netlist.GateID]bool, topoPos []int32, nets []uint64) *region {
	fwd, support := growForwardRef(c, f.Net, opt, regionSet)
	if len(support) == 0 || len(support) > opt.MaxSupport {
		return nil
	}

	// Trim loop: evaluate the region; boundary gates whose faulty
	// function is too dense to re-synthesize economically are ejected
	// (with their in-region descendants) and the region re-evaluated.
	// This settles on the same boundary a cost-driven synthesis run
	// would: simple re-expressible logic in, dense logic out.
	var (
		regionOrder []netlist.GateID
		boundary    []netlist.GateID
		goodTT      [][]uint64
		faultyTT    [][]uint64
		actTT       []uint64 // activation set: where f.Net computes ¬v, one bit per minterm
		act         []uint32
		n, size     int
	)
	var vWord uint64
	if f.StuckAt {
		vWord = ^uint64(0)
	}
	for iter := 0; ; iter++ {
		if iter > 8 || len(fwd) == 0 || !fwd[f.Net] {
			return nil
		}
		n = len(support)
		if n == 0 || n > opt.MaxSupport {
			return nil
		}
		size = 1 << uint(n)
		// The region's gates in topological order, at a cost in the
		// region's size rather than the circuit's.
		regionOrder = regionOrder[:0]
		for id := range regionSet {
			if topoPos[id] >= 0 {
				regionOrder = append(regionOrder, id)
			}
		}
		slices.SortFunc(regionOrder, func(a, b netlist.GateID) int { return cmp.Compare(topoPos[a], topoPos[b]) })
		boundary = boundary[:0]
		for _, id := range regionOrder {
			if !fwd[id] {
				continue
			}
			for _, s := range c.Fanouts(id) {
				if !regionSet[s] {
					boundary = append(boundary, id)
					break
				}
			}
		}
		if len(boundary) == 0 {
			return nil
		}

		// Two compiled passes over the region: the good circuit, and
		// the faulty one, which re-evaluates the forward shadow with
		// the fault net held at v.
		good, err := sim.CompileCone(c, regionOrder)
		if err != nil {
			return nil
		}
		shadow := make([]netlist.GateID, 0, len(fwd))
		for _, id := range regionOrder {
			if id != f.Net && fwd[id] {
				shadow = append(shadow, id)
			}
		}
		faulty, err := sim.CompileCone(c, shadow)
		if err != nil {
			return nil
		}

		words := (size + 63) / 64
		goodTT = make([][]uint64, len(boundary))
		faultyTT = make([][]uint64, len(boundary))
		for i := range boundary {
			goodTT[i] = make([]uint64, words)
			faultyTT[i] = make([]uint64, words)
		}
		actTT = make([]uint64, words)
		forced := make([]uint64, n)
		for ch := 0; ch < words; ch++ {
			sim.ExhaustiveWords(forced, n, ch)
			for i, s := range support {
				nets[s] = forced[i]
			}
			good.Eval(nets)
			actTT[ch] = nets[f.Net] ^ vWord
			for bi, b := range boundary {
				goodTT[bi][ch] = nets[b]
			}
			nets[f.Net] = vWord
			faulty.Eval(nets)
			for bi, b := range boundary {
				switch {
				case b == f.Net:
					faultyTT[bi][ch] = vWord
				case fwd[b]:
					faultyTT[bi][ch] = nets[b]
				default:
					faultyTT[bi][ch] = goodTT[bi][ch]
				}
			}
		}

		// Identify boundaries too dense to rebuild.
		var evict []netlist.GateID
		mask := lowMask(size)
		for bi, b := range boundary {
			ones := 0
			for ch := range faultyTT[bi] {
				w := faultyTT[bi][ch]
				if ch == len(faultyTT[bi])-1 {
					w &= mask
				}
				ones += popcount(w)
			}
			if min(ones, size-ones) > opt.MaxSOP && b != f.Net {
				evict = append(evict, b)
			}
		}
		if len(evict) == 0 {
			// Region settled: extract the activation cover.
			act = act[:0]
			for m := 0; m < size; m++ {
				if actTT[m/64]>>uint(m%64)&1 == 1 {
					act = append(act, uint32(m))
				}
			}
			break
		}
		// Eject the dense boundaries and everything downstream of them
		// inside the forward shadow, then recompute the support.
		for _, e := range evict {
			ejectForwardRef(c, e, fwd, regionSet)
		}
		support = recomputeSupportRef(c, regionSet)
	}
	if len(act) == 0 || len(act) > opt.MaxActOnSet {
		return nil
	}
	r := &region{fault: f, support: support, boundary: boundary}
	r.actCubes = atpg.MergeMinterms(act, n)
	for _, cu := range r.actCubes {
		r.keyBits += cu.Bits()
	}
	if r.keyBits == 0 {
		return nil // fault always active: nothing secret to compare
	}
	anyDiff := false
	addedArea := 0.0
	for bi := range boundary {
		var on, diff []uint32
		for m := 0; m < size; m++ {
			w, bit := m/64, uint(m%64)
			fv := faultyTT[bi][w]>>bit&1 == 1
			if fv {
				on = append(on, uint32(m))
			}
			if fv != (goodTT[bi][w]>>bit&1 == 1) {
				diff = append(diff, uint32(m))
			}
		}
		if min(len(on), size-len(on)) > opt.MaxSOP || len(diff) > opt.MaxActOnSet*4 {
			return nil
		}
		r.faultyOn = append(r.faultyOn, on)
		var cond []atpg.Cube
		if len(diff) > 0 {
			anyDiff = true
			cond = expandAgainstDCRef(atpg.MergeMinterms(diff, n), diff, actTT, n)
		}
		r.cond = append(r.cond, cond)
		addedArea += sopAreaFromOnRef(on, n)
		addedArea += condArea(cond)
		if len(cond) > 0 {
			addedArea += cellib.ForGate(netlist.And, 2).Area
			if len(on) > 0 && len(on) < size {
				addedArea += cellib.ForGate(netlist.Xor, 2).Area
			}
		}
	}
	if !anyDiff {
		return nil // redundant fault
	}
	addedArea += float64(r.keyBits) * (cellib.ForGate(netlist.Xnor, 2).Area + cellib.ForGate(netlist.TieHi, 0).Area)
	if len(r.actCubes) > 1 {
		addedArea += cellib.ForGate(netlist.Or, len(r.actCubes)).Area
	}

	// Removed set: the whole forward shadow plus backward-cone gates
	// whose sinks all stay inside the removed set.
	removedSet := make(map[netlist.GateID]bool, len(regionSet))
	for id := range fwd {
		removedSet[id] = true
	}
	for i := len(regionOrder) - 1; i >= 0; i-- {
		id := regionOrder[i]
		if removedSet[id] || c.Gate(id).DontTouch {
			continue
		}
		ok := true
		for _, s := range c.Fanouts(id) {
			if !removedSet[s] {
				ok = false
				break
			}
		}
		if ok {
			removedSet[id] = true
		}
	}
	removedArea := 0.0
	for _, id := range regionOrder {
		if removedSet[id] {
			r.removed = append(r.removed, id)
			gg := c.Gate(id)
			removedArea += cellib.ForGate(gg.Type, len(gg.Fanin)).Area
		}
	}
	r.gain = removedArea - addedArea
	return r
}

// growBackwardRef and growForwardRef build the fault's region adaptively:
// the backward cone (bounded depth) plus a forward shadow grown
// breadth-first, admitting a sink gate only while the region's input
// cut stays within MaxSupport. Growth therefore stops exactly where the
// fault's shadow meets wide, unrelated logic — the re-synthesis
// boundary a commercial tool would also settle on.
//
// growBackwardRef returns the backward half — the deepest bounded cone of
// root whose input cut fits MaxSupport — and that cut in ascending ID
// order. It returns nil when no depth fits, so the candidate is
// rejected.
func growBackwardRef(c *netlist.Circuit, root netlist.GateID, opt regionOptions) (regionSet map[netlist.GateID]bool, support []netlist.GateID) {
	for db := opt.BackDepth; db >= 1; db-- {
		backCone, _ := c.BoundedCone(root, db)
		regionSet = make(map[netlist.GateID]bool, len(backCone)+8)
		for id := range backCone {
			if !c.Gate(id).DontTouch {
				regionSet[id] = true
			}
		}
		regionSet[root] = true
		if support = recomputeSupportRef(c, regionSet); len(support) <= opt.MaxSupport {
			return regionSet, support
		}
	}
	return nil, nil
}

// growForwardRef adds root's forward shadow to the backward region in
// place and returns the shadow (root included) and the region's input
// cut in ascending ID order.
func growForwardRef(c *netlist.Circuit, root netlist.GateID, opt regionOptions, regionSet map[netlist.GateID]bool) (fwd map[netlist.GateID]bool, support []netlist.GateID) {
	supportSet := make(map[netlist.GateID]bool)
	recount := func() int {
		for k := range supportSet {
			delete(supportSet, k)
		}
		for id := range regionSet {
			for _, fin := range c.Gate(id).Fanin {
				if !regionSet[fin] {
					supportSet[fin] = true
				}
			}
		}
		return len(supportSet)
	}
	fwd = map[netlist.GateID]bool{root: true}
	type item struct {
		id netlist.GateID
		d  int
	}
	queue := []item{{root, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.d >= opt.FwdDepth {
			continue
		}
		// Deterministic sink order.
		sinks := append([]netlist.GateID(nil), c.Fanouts(it.id)...)
		sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })
		for _, s := range sinks {
			sg := c.Gate(s)
			if regionSet[s] || sg.DontTouch || sg.Type == netlist.Output || sg.Type == netlist.DFF {
				continue
			}
			regionSet[s] = true
			if recount() > opt.MaxSupport {
				delete(regionSet, s)
				recount()
				continue
			}
			fwd[s] = true
			queue = append(queue, item{s, it.d + 1})
		}
	}
	return fwd, recomputeSupportRef(c, regionSet)
}

// backwardKeyBitsRef returns the key bits of the fault's activation cover
// computed over the backward region alone, or -1 when the activation
// set is empty or larger than MaxActOnSet. The fault net is a function
// of the backward cut only, and the forward shadow and the trim loop
// only add cut inputs it ignores. Over the final cut the activation set
// is the backward one extended by every value of the extra inputs: at
// least as many minterms and the same prime implicants, hence the same
// key bits (MergeMinterms returns all primes). So analyzeGrownRef returns
// nil whenever this is -1 or 0, and otherwise a region with exactly
// this many key bits or nil.
func backwardKeyBitsRef(c *netlist.Circuit, f atpg.Fault, regionSet map[netlist.GateID]bool, support []netlist.GateID, opt regionOptions, topoPos []int32, nets []uint64) int {
	n := len(support)
	if n == 0 {
		// A constant fault net is never active, or always active and
		// covered by a cube without a single key bit.
		return 0
	}
	order := make([]netlist.GateID, 0, len(regionSet))
	for id := range regionSet {
		if topoPos[id] >= 0 {
			order = append(order, id)
		}
	}
	slices.SortFunc(order, func(a, b netlist.GateID) int { return cmp.Compare(topoPos[a], topoPos[b]) })
	cone, err := sim.CompileCone(c, order)
	if err != nil {
		return -1
	}
	var vWord uint64
	if f.StuckAt {
		vWord = ^uint64(0)
	}
	size := 1 << uint(n)
	mask := lowMask(size)
	forced := make([]uint64, n)
	var act []uint32
	for ch := 0; ch < (size+63)/64; ch++ {
		sim.ExhaustiveWords(forced, n, ch)
		for i, s := range support {
			nets[s] = forced[i]
		}
		cone.Eval(nets)
		w := (nets[f.Net] ^ vWord) & mask
		if len(act)+popcount(w) > opt.MaxActOnSet {
			return -1
		}
		for ; w != 0; w &= w - 1 {
			act = append(act, uint32(ch*64+bits.TrailingZeros64(w)))
		}
	}
	if len(act) == 0 {
		return -1
	}
	keyBits := 0
	for _, cu := range atpg.MergeMinterms(act, n) {
		keyBits += cu.Bits()
	}
	return keyBits
}

// ejectForwardRef removes gate e and all its forward-shadow descendants
// from the region.
func ejectForwardRef(c *netlist.Circuit, e netlist.GateID, fwd, regionSet map[netlist.GateID]bool) {
	stack := []netlist.GateID{e}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fwd[id] {
			continue
		}
		delete(fwd, id)
		delete(regionSet, id)
		for _, s := range c.Fanouts(id) {
			if fwd[s] {
				stack = append(stack, s)
			}
		}
	}
}

// recomputeSupportRef returns the region's external input cut in
// ascending ID order.
func recomputeSupportRef(c *netlist.Circuit, regionSet map[netlist.GateID]bool) []netlist.GateID {
	seen := make(map[netlist.GateID]bool)
	var support []netlist.GateID
	for id := range regionSet {
		for _, fin := range c.Gate(id).Fanin {
			if !regionSet[fin] && !seen[fin] {
				seen[fin] = true
				support = append(support, fin)
			}
		}
	}
	sort.Slice(support, func(i, j int) bool { return support[i] < support[j] })
	return support
}

// expandAgainstDCRef widens each cover cube by dropping care literals as
// long as the cube stays within onSet ∪ dcSet (the classic ESPRESSO
// expand step with ¬activation as don't-cares). The result still
// agrees with the diff on the activation set but is typically far
// smaller — often a single literal. act is the activation set as a
// bitset over the 2^n minterms.
func expandAgainstDCRef(cover []atpg.Cube, onMinterms []uint32, act []uint64, n int) []atpg.Cube {
	onSet := make([]uint64, (1<<uint(n)+63)/64)
	for _, m := range onMinterms {
		onSet[m/64] |= 1 << (m % 64)
	}
	free := make([]int, 0, n)
	// allowed reports whether each minterm of the cube is either a diff
	// minterm or outside the activation set (the don't-care set is the
	// activation set's complement).
	allowed := func(cu atpg.Cube) bool {
		free = free[:0]
		for j := 0; j < n; j++ {
			if cu.Care>>uint(j)&1 == 0 {
				free = append(free, j)
			}
		}
		if len(free) > 16 {
			return false // enumeration too wide; keep the cube as is
		}
		for k := 0; k < 1<<uint(len(free)); k++ {
			m := cu.Value & cu.Care
			for fi, j := range free {
				if k>>uint(fi)&1 == 1 {
					m |= 1 << uint(j)
				}
			}
			if !inSetRef(onSet, m) && inSetRef(act, m) {
				return false // an activation minterm that must not flip
			}
		}
		return true
	}
	out := make([]atpg.Cube, 0, len(cover))
	for _, cu := range cover {
		for j := 0; j < n; j++ {
			if cu.Care>>uint(j)&1 == 0 {
				continue
			}
			trial := atpg.Cube{Value: cu.Value &^ (1 << uint(j)), Care: cu.Care &^ (1 << uint(j))}
			if allowed(trial) {
				cu = trial
			}
		}
		out = append(out, cu)
	}
	// Drop duplicates introduced by expansion.
	seen := make(map[atpg.Cube]bool, len(out))
	uniq := out[:0]
	for _, cu := range out {
		if !seen[cu] {
			seen[cu] = true
			uniq = append(uniq, cu)
		}
	}
	return uniq
}

// inSetRef reports whether minterm m is in the bitset s.
func inSetRef(s []uint64, m uint32) bool { return s[m/64]>>(m%64)&1 == 1 }

// sopAreaFromOnRef prices a plain SOP of the on-set or its complement,
// whichever is smaller.
func sopAreaFromOnRef(on []uint32, n int) float64 {
	size := 1 << uint(n)
	if len(on) == 0 || len(on) == size {
		return cellib.ForGate(netlist.TieLo, 0).Area
	}
	minterms := on
	invert := false
	if size-len(on) < len(on) {
		minterms = complementMinterms(on, n)
		invert = true
	}
	cubes := atpg.MergeMinterms(minterms, n)
	a := 0.0
	for _, cu := range cubes {
		b := cu.Bits()
		if b > 1 {
			a += cellib.ForGate(netlist.And, b).Area
		}
		a += float64(b) / 4 * cellib.ForGate(netlist.Not, 1).Area
	}
	if len(cubes) > 1 {
		a += cellib.ForGate(netlist.Or, len(cubes)).Area
	}
	if invert {
		a += cellib.ForGate(netlist.Not, 1).Area
	}
	return a
}

// regionDiff names the first field in which two analysis results
// differ, or returns "" when they are equal. A nil and an empty slice
// are equal.
func regionDiff(got, want *region) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("region %v, reference %v", got != nil, want != nil)
	}
	if got == nil {
		return ""
	}
	switch {
	case got.fault != want.fault:
		return "fault"
	case !slices.Equal(got.support, want.support):
		return fmt.Sprintf("support %v, reference %v", got.support, want.support)
	case !slices.Equal(got.boundary, want.boundary):
		return fmt.Sprintf("boundary %v, reference %v", got.boundary, want.boundary)
	case !slices.Equal(got.actCubes, want.actCubes):
		return fmt.Sprintf("actCubes %v, reference %v", got.actCubes, want.actCubes)
	case !slices.EqualFunc(got.faultyOn, want.faultyOn, slices.Equal):
		return "faultyOn"
	case !slices.EqualFunc(got.cond, want.cond, slices.Equal):
		return fmt.Sprintf("cond %v, reference %v", got.cond, want.cond)
	case !slices.Equal(got.removed, want.removed):
		return fmt.Sprintf("removed %v, reference %v", got.removed, want.removed)
	case got.keyBits != want.keyBits:
		return fmt.Sprintf("keyBits %d, reference %d", got.keyBits, want.keyBits)
	case got.gain != want.gain:
		return fmt.Sprintf("gain %v, reference %v", got.gain, want.gain)
	}
	return ""
}

// checkRegionsMatchReference runs every stage of the analyzer and of
// the reference on every fault of c and fails on the first difference:
// the backward region and its cut, the backward key bits, the grown
// region, and the whole analysis.
func checkRegionsMatchReference(t *testing.T, c *netlist.Circuit, opt regionOptions, budget int) (regions int) {
	t.Helper()
	a := testAnalyzer(t, c, opt)
	topoPos, nets := refScratch(t, c)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		g := c.Gate(id)
		if g.Type.IsSource() || g.Type == netlist.Output || g.DontTouch {
			continue
		}
		for _, sa := range []bool{false, true} {
			f := atpg.Fault{Net: id, StuckAt: sa}
			refSet, refSupport := growBackwardRef(c, id, opt)
			if ok := a.growBackward(id); ok != (refSet != nil) {
				t.Fatalf("fault %v: backward region %v, reference %v", f, ok, refSet != nil)
			}
			if refSet != nil {
				var members []netlist.GateID
				for _, m := range a.region.members {
					if a.region.has(m) {
						members = append(members, m)
					}
				}
				slices.Sort(members)
				var want []netlist.GateID
				for m := range refSet {
					want = append(want, m)
				}
				slices.Sort(want)
				if !slices.Equal(members, want) || !slices.Equal(a.support, refSupport) {
					t.Fatalf("fault %v: backward region %v cut %v, reference %v cut %v", f, members, a.support, want, refSupport)
				}
				kb, refKB := a.backwardKeyBits(f), backwardKeyBitsRef(c, f, refSet, refSupport, opt, topoPos, nets)
				if kb != refKB {
					t.Fatalf("fault %v: backward key bits %d, reference %d", f, kb, refKB)
				}
				r, ref := a.analyzeGrown(f), analyzeGrownRef(c, f, opt, refSet, topoPos, nets)
				if d := regionDiff(r, ref); d != "" {
					t.Fatalf("fault %v: grown region differs: %s", f, d)
				}
			}
			r, ref := a.analyze(f, budget), analyzeRegionRef(c, f, opt, budget, topoPos, nets)
			if d := regionDiff(r, ref); d != "" {
				t.Fatalf("fault %v: region differs: %s", f, d)
			}
			if r != nil {
				regions++
			}
		}
	}
	return regions
}

// FuzzRegionDifferential holds the analyzer to the reference analysis
// on generated netlists, some of them randomly locked first (key-gates
// are DontTouch), under the lock's bounds and under narrower and deeper
// ones.
func FuzzRegionDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(2), uint8(1))
	f.Add(uint64(3), uint8(2))
	f.Add(uint64(4), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, variant uint8) {
		c := genCircuit(t, 100+int(seed%4)*100, seed)
		if variant&1 == 1 {
			lk, err := RandomLock(c, RandomLockOptions{KeyBits: 8, Seed: seed + 1})
			if err != nil {
				t.Fatal(err)
			}
			c = lk.Circuit
		}
		opt := lockRegionOptions()
		if variant&2 != 0 {
			opt.MaxSupport, opt.MaxActOnSet, opt.MaxSOP = 7, 12, 10
		}
		if variant&4 != 0 {
			opt.BackDepth, opt.FwdDepth = 3, 4
		}
		checkRegionsMatchReference(t, c, opt, 16+int(variant>>3)%64)
	})
}

// TestRegionMatchesReferenceOnB14 runs the differential check on a
// slice of the ITC'99 b14 benchmark, with flip-flops and wide cones.
func TestRegionMatchesReferenceOnB14(t *testing.T) {
	c, err := bmarks.Load("b14", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n := checkRegionsMatchReference(t, c, lockRegionOptions(), 128); n == 0 {
		t.Fatal("no region analyzed to completion")
	}
}
