package locking

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"math/bits"

	"repro/internal/atpg"
	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// The region-based transformation is the full form of the paper's
// synthesis stage (Sec. III-A / Fig. 4): injecting a stuck-at fault
// lets re-synthesis delete not only the fault's fanin cone but also the
// downstream logic the constant simplifies — that is where the paper's
// area savings come from.
//
// For a fault n stuck-at v we select a region around n (backward cone
// plus forward shadow), re-synthesize every boundary net of the region
// as plain logic of the *faulty* circuit over the region support, and
// restore correctness with
//
//	boundary = faulty ⊕ (match ∧ cond_b)
//
// where match is ONE keyed comparator per fault recognizing the fault's
// failing (activation) patterns — the Fig. 4(d) comparator whose
// reference literals are TIE-cell key bits — and cond_b is a plain
// propagation condition minimized against the don't-care set ¬act.
// Outside the activation set faulty ≡ good, so the construction is
// exact (and verified by the apply-reject loop).

// region is the analysis result for one fault candidate.
type region struct {
	fault atpg.Fault
	// support is the region's external input cut, ascending IDs.
	support []netlist.GateID
	// boundary lists forward-cone gates with sinks outside the region,
	// in topological order; these are the nets to re-drive.
	boundary []netlist.GateID
	// actCubes is the keyed activation cover (failing patterns of the
	// fault relative to the support).
	actCubes []atpg.Cube
	// faultyOn[i] is the on-set of boundary i in the faulty circuit;
	// cond[i] is the minimized propagation cover (nil when boundary i
	// never differs).
	faultyOn [][]uint32
	cond     [][]atpg.Cube
	// removed is the set of gates deleted by the transformation, in
	// topological order.
	removed []netlist.GateID
	// keyBits is the comparator budget: Σ cares over actCubes.
	keyBits int
	// gain is estimated removedArea − addedArea (um^2).
	gain float64
}

// regionOptions bounds region analysis.
type regionOptions struct {
	BackDepth, FwdDepth int
	MaxSupport          int
	// MaxActOnSet caps the activation minterm count (keyed comparator
	// size); MaxSOP caps min(|on|,|off|) of any boundary's faulty
	// function (plain re-synthesis size).
	MaxActOnSet, MaxSOP int
}

// analyzeRegion evaluates one fault candidate; it returns nil when the
// candidate violates a bound or needs more than budget key bits (the
// caller rejects such a region anyway). topoPos maps a gate to its
// index in the circuit's current topological order (-1 when it has
// none) and nets is a NumIDs-sized scratch buffer (both hoisted by the
// caller across the candidate scan).
func analyzeRegion(c *netlist.Circuit, f atpg.Fault, opt regionOptions, budget int, topoPos []int32, nets []uint64) *region {
	g := c.Gate(f.Net)
	if g.Type.IsSource() || g.Type == netlist.Output || g.DontTouch {
		return nil
	}
	regionSet, backSupport := growBackward(c, f.Net, opt)
	if regionSet == nil {
		return nil
	}
	// Most candidates fail on their activation set, which the backward
	// region already fixes: reject those before the far costlier
	// forward growth and trim loop.
	if kb := backwardKeyBits(c, f, regionSet, backSupport, opt, topoPos, nets); kb <= 0 || kb > budget {
		return nil
	}
	return analyzeGrown(c, f, opt, regionSet, topoPos, nets)
}

// analyzeGrown is analyzeRegion after the backward region is chosen:
// it grows the forward shadow into regionSet, settles the boundary and
// costs the transformation.
func analyzeGrown(c *netlist.Circuit, f atpg.Fault, opt regionOptions, regionSet map[netlist.GateID]bool, topoPos []int32, nets []uint64) *region {
	fwd, support := growForward(c, f.Net, opt, regionSet)
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
			ejectForward(c, e, fwd, regionSet)
		}
		support = recomputeSupport(c, regionSet)
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
			cond = expandAgainstDC(atpg.MergeMinterms(diff, n), diff, actTT, n)
		}
		r.cond = append(r.cond, cond)
		addedArea += sopAreaFromOn(on, n)
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

// growBackward and growForward build the fault's region adaptively:
// the backward cone (bounded depth) plus a forward shadow grown
// breadth-first, admitting a sink gate only while the region's input
// cut stays within MaxSupport. Growth therefore stops exactly where the
// fault's shadow meets wide, unrelated logic — the re-synthesis
// boundary a commercial tool would also settle on.
//
// growBackward returns the backward half — the deepest bounded cone of
// root whose input cut fits MaxSupport — and that cut in ascending ID
// order. It returns nil when no depth fits, so the candidate is
// rejected.
func growBackward(c *netlist.Circuit, root netlist.GateID, opt regionOptions) (regionSet map[netlist.GateID]bool, support []netlist.GateID) {
	for db := opt.BackDepth; db >= 1; db-- {
		backCone, _ := c.BoundedCone(root, db)
		regionSet = make(map[netlist.GateID]bool, len(backCone)+8)
		for id := range backCone {
			if !c.Gate(id).DontTouch {
				regionSet[id] = true
			}
		}
		regionSet[root] = true
		if support = recomputeSupport(c, regionSet); len(support) <= opt.MaxSupport {
			return regionSet, support
		}
	}
	return nil, nil
}

// growForward adds root's forward shadow to the backward region in
// place and returns the shadow (root included) and the region's input
// cut in ascending ID order.
func growForward(c *netlist.Circuit, root netlist.GateID, opt regionOptions, regionSet map[netlist.GateID]bool) (fwd map[netlist.GateID]bool, support []netlist.GateID) {
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
	return fwd, recomputeSupport(c, regionSet)
}

// backwardKeyBits returns the key bits of the fault's activation cover
// computed over the backward region alone, or -1 when the activation
// set is empty or larger than MaxActOnSet. The fault net is a function
// of the backward cut only, and the forward shadow and the trim loop
// only add cut inputs it ignores. Over the final cut the activation set
// is the backward one extended by every value of the extra inputs: at
// least as many minterms and the same prime implicants, hence the same
// key bits (MergeMinterms returns all primes). So analyzeGrown returns
// nil whenever this is -1 or 0, and otherwise a region with exactly
// this many key bits or nil.
func backwardKeyBits(c *netlist.Circuit, f atpg.Fault, regionSet map[netlist.GateID]bool, support []netlist.GateID, opt regionOptions, topoPos []int32, nets []uint64) int {
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

// ejectForward removes gate e and all its forward-shadow descendants
// from the region.
func ejectForward(c *netlist.Circuit, e netlist.GateID, fwd, regionSet map[netlist.GateID]bool) {
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

// recomputeSupport returns the region's external input cut in
// ascending ID order.
func recomputeSupport(c *netlist.Circuit, regionSet map[netlist.GateID]bool) []netlist.GateID {
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

func popcount(w uint64) int { return bits.OnesCount64(w) }

// lowMask masks the valid bits of the last truth-table word.
func lowMask(size int) uint64 {
	if size >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(size) - 1
}

// expandAgainstDC widens each cover cube by dropping care literals as
// long as the cube stays within onSet ∪ dcSet (the classic ESPRESSO
// expand step with ¬activation as don't-cares). The result still
// agrees with the diff on the activation set but is typically far
// smaller — often a single literal. act is the activation set as a
// bitset over the 2^n minterms.
func expandAgainstDC(cover []atpg.Cube, onMinterms []uint32, act []uint64, n int) []atpg.Cube {
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
			if !inSet(onSet, m) && inSet(act, m) {
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

// inSet reports whether minterm m is in the bitset s.
func inSet(s []uint64, m uint32) bool { return s[m/64]>>(m%64)&1 == 1 }

// sopAreaFromOn prices a plain SOP of the on-set or its complement,
// whichever is smaller, without running QM on huge sets.
func sopAreaFromOn(on []uint32, n int) float64 {
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

func condArea(cond []atpg.Cube) float64 {
	a := 0.0
	for _, cu := range cond {
		b := cu.Bits()
		if b > 1 {
			a += cellib.ForGate(netlist.And, b).Area
		}
	}
	if len(cond) > 1 {
		a += cellib.ForGate(netlist.Or, len(cond)).Area
	}
	return a
}

func complementMinterms(on []uint32, n int) []uint32 {
	size := 1 << uint(n)
	inOn := make([]bool, size)
	for _, m := range on {
		inOn[m] = true
	}
	var off []uint32
	for m := 0; m < size; m++ {
		if !inOn[m] {
			off = append(off, uint32(m))
		}
	}
	return off
}

// applyRegion performs the transformation on the circuit: one keyed
// activation comparator, per-boundary faulty SOP ⊕ (match ∧ cond),
// rewiring of outside sinks, and deletion of the removed set. New key
// bits are appended to lk. The returned areas are measured (post
// SweepDead), not estimated.
func applyRegion(c *netlist.Circuit, lk *Locked, r *region, rng *sim.Rand) (bits int, removedArea, addedArea float64, err error) {
	n := len(r.support)
	baseIdx := len(lk.KeyBits)
	inRemoved := make(map[netlist.GateID]bool, len(r.removed))
	for _, id := range r.removed {
		inRemoved[id] = true
	}
	areaBefore := cellib.Area(c)

	// Shared inverters for negative literals.
	invOf := make(map[netlist.GateID]netlist.GateID)
	literal := func(si int, positive bool) (netlist.GateID, error) {
		s := r.support[si]
		if positive {
			return s, nil
		}
		if inv, ok := invOf[s]; ok {
			return inv, nil
		}
		inv, aerr := c.AddGate("", netlist.Not, s)
		if aerr != nil {
			return netlist.InvalidGate, aerr
		}
		invOf[s] = inv
		return inv, nil
	}
	sop := func(cubes []atpg.Cube, invert bool) (netlist.GateID, error) {
		var terms []netlist.GateID
		for _, cu := range cubes {
			var lits []netlist.GateID
			for j := 0; j < n; j++ {
				if cu.Care>>uint(j)&1 == 0 {
					continue
				}
				lit, lerr := literal(j, cu.Value>>uint(j)&1 == 1)
				if lerr != nil {
					return netlist.InvalidGate, lerr
				}
				lits = append(lits, lit)
			}
			switch len(lits) {
			case 0:
				t, terr := c.AddGate("", netlist.TieHi)
				if terr != nil {
					return netlist.InvalidGate, terr
				}
				terms = append(terms, t)
			case 1:
				terms = append(terms, lits[0])
			default:
				t, terr := c.AddGate("", netlist.And, lits...)
				if terr != nil {
					return netlist.InvalidGate, terr
				}
				terms = append(terms, t)
			}
		}
		var out netlist.GateID
		switch len(terms) {
		case 0:
			out, err = c.AddGate("", netlist.TieLo)
		case 1:
			out = terms[0]
		default:
			out, err = c.AddGate("", netlist.Or, terms...)
		}
		if err != nil {
			return netlist.InvalidGate, err
		}
		if invert {
			return c.AddGate("", netlist.Not, out)
		}
		return out, nil
	}

	// The keyed activation comparator (one per fault).
	match, err := buildComparator(c, lk, r.support, r.actCubes, rng)
	if err != nil {
		return 0, 0, 0, err
	}

	size := 1 << uint(n)
	for bi, b := range r.boundary {
		on := r.faultyOn[bi]
		var faultyNet netlist.GateID
		switch {
		case len(on) == 0:
			faultyNet, err = c.AddGate("", netlist.TieLo)
		case len(on) == size:
			faultyNet, err = c.AddGate("", netlist.TieHi)
		default:
			if size-len(on) < len(on) {
				faultyNet, err = sop(atpg.MergeMinterms(complementMinterms(on, n), n), true)
			} else {
				faultyNet, err = sop(atpg.MergeMinterms(on, n), false)
			}
		}
		if err != nil {
			return 0, 0, 0, err
		}
		newNet := faultyNet
		if len(r.cond[bi]) > 0 {
			condNet, cerr := sop(r.cond[bi], false)
			if cerr != nil {
				return 0, 0, 0, cerr
			}
			restore := match
			// cond ≡ TRUE (a single all-dontcare cube) needs no AND.
			if !(len(r.cond[bi]) == 1 && r.cond[bi][0].Care == 0) {
				restore, err = c.AddGate("", netlist.And, match, condNet)
				if err != nil {
					return 0, 0, 0, err
				}
				c.Gate(restore).DontTouch = true
			}
			// Constant faulty functions absorb the XOR: 0 ⊕ r = r and
			// 1 ⊕ r = ¬r.
			switch {
			case len(on) == 0:
				newNet = restore
			case len(on) == size:
				newNet, err = c.AddGate("", netlist.Not, restore)
			default:
				newNet, err = c.AddGate("", netlist.Xor, faultyNet, restore)
			}
			if err != nil {
				return 0, 0, 0, err
			}
			c.Gate(newNet).DontTouch = true
		}
		for _, s := range append([]netlist.GateID(nil), c.Fanouts(b)...) {
			if inRemoved[s] {
				continue
			}
			c.ReplaceFanin(s, b, newNet)
		}
	}
	for _, id := range r.removed {
		c.Kill(id)
	}
	c.SweepDead()
	areaAfter := cellib.Area(c)
	return len(lk.KeyBits) - baseIdx, max0(areaBefore - areaAfter), max0(areaAfter - areaBefore), nil
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// buildComparator creates the keyed cube matcher: one XOR/XNOR key-gate
// per care literal, an AND per multi-literal cube, an OR across cubes.
// Key bits are drawn uniformly (the K <-$- {0,1}^k constraint of
// Sec. III-A).
func buildComparator(c *netlist.Circuit, lk *Locked, support []netlist.GateID, cubes []atpg.Cube, rng *sim.Rand) (netlist.GateID, error) {
	var terms []netlist.GateID
	for _, cu := range cubes {
		var lits []netlist.GateID
		for j := range support {
			if cu.Care>>uint(j)&1 == 0 {
				continue
			}
			bit := cu.Value>>uint(j)&1 == 1
			k := rng.Word()&1 == 1
			gt := netlist.Xnor
			if k != bit {
				gt = netlist.Xor
			}
			tt := netlist.TieLo
			if k {
				tt = netlist.TieHi
			}
			kidx := len(lk.KeyBits)
			tie, err := c.AddGate(fmt.Sprintf("tie_k%d", kidx), tt)
			if err != nil {
				return netlist.InvalidGate, err
			}
			cmp, err := c.AddGate(fmt.Sprintf("kg%d", kidx), gt, support[j], tie)
			if err != nil {
				return netlist.InvalidGate, err
			}
			c.Gate(tie).DontTouch = true
			c.Gate(cmp).DontTouch = true
			c.Gate(cmp).KeyPin = 1
			lk.KeyBits = append(lk.KeyBits, KeyBit{Tie: tie, Gate: cmp, Pin: 1, Value: k})
			lits = append(lits, cmp)
		}
		term := lits[0]
		if len(lits) > 1 {
			var err error
			term, err = c.AddGate("", netlist.And, lits...)
			if err != nil {
				return netlist.InvalidGate, err
			}
			c.Gate(term).DontTouch = true
		}
		terms = append(terms, term)
	}
	match := terms[0]
	if len(terms) > 1 {
		var err error
		match, err = c.AddGate("", netlist.Or, terms...)
		if err != nil {
			return netlist.InvalidGate, err
		}
		c.Gate(match).DontTouch = true
	}
	return match, nil
}
