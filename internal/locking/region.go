package locking

import (
	"cmp"
	"fmt"
	"slices"

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

// idSet is a set of gate IDs kept in an epoch-stamped dense array:
// clearing it is one counter step, and members lists what was added
// since, so walking the set costs its size, not the circuit's. A
// member's mark is epoch; epoch+1 marks an ID that was deleted but is
// still listed, so members may hold deleted IDs (filter with has) but
// never an ID twice.
type idSet struct {
	mark    []uint32
	epoch   uint32
	members []netlist.GateID
}

// clear empties the set and sizes it for IDs below n.
func (s *idSet) clear(n int) {
	if len(s.mark) < n {
		s.mark = append(s.mark, make([]uint32, n-len(s.mark))...)
	}
	s.epoch += 2
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 2
	}
	s.members = s.members[:0]
}

func (s *idSet) has(id netlist.GateID) bool { return s.mark[id] == s.epoch }

// add inserts id and reports whether it was absent.
func (s *idSet) add(id netlist.GateID) bool {
	switch s.mark[id] {
	case s.epoch:
		return false
	case s.epoch + 1:
	default:
		s.members = append(s.members, id)
	}
	s.mark[id] = s.epoch
	return true
}

func (s *idSet) del(id netlist.GateID) {
	if s.mark[id] == s.epoch {
		s.mark[id] = s.epoch + 1
	}
}

// analyzer is the region analysis of one lock: the circuit's
// topological positions, which stay put until a fault is committed
// (reset), plus dense sets, compiled cones and buffers reused from one
// candidate to the next, so a candidate allocates nothing once the
// buffers have grown.
type analyzer struct {
	c   *netlist.Circuit
	opt regionOptions
	// topoPos maps a gate to its index in the circuit's topological
	// order (-1 when it has none); nets is a NumIDs-sized net buffer.
	topoPos []int32
	nets    []uint64

	// region is the candidate's region, fwd its forward shadow (root
	// included), support the region's input cut in ascending ID order.
	region, fwd idSet
	support     []netlist.GateID
	// cone, seen and removed are scratch sets: the bounded backward
	// cone, the support dedup, and the removed set.
	cone, seen, removed idSet
	// refs[id] counts the region's fanin pins that read net id, valid
	// where refMark[id] == refEpoch; growForward keeps the input cut's
	// size with it.
	refs     []int32
	refMark  []uint32
	refEpoch uint32

	stack    []coneItem
	order    []netlist.GateID // region in topological order
	boundary []netlist.GateID
	shadow   []netlist.GateID
	evict    []netlist.GateID
	ids      []netlist.GateID // ejectForward's stack
	sinks    []netlist.GateID // applyRegion's copy of a fanout list
	forced   []uint64
	// good and faulty are the compiled region cones.
	good, faulty sim.Cone
	// goodTT and faultyTT hold one truth table per boundary, words
	// apart; actTT is the activation set.
	goodTT, faultyTT, actTT []uint64
	act, diff, forbid, off  []uint32
	merger                  atpg.Merger

	// cand receives each analysis; spare holds the caller's best
	// region while cand is overwritten (see keep).
	cand, spare *region

	// The trial's bookkeeping (trial.go): the sinks applyRegion
	// rewired, the gates the trial killed, the sweep's work list, marks
	// and walk, the new gates' positions, the sinks of edges that run
	// against the topological order, and the trial's forward cone,
	// compiled for the equivalence check.
	rewired                                []rewire
	killed, work, back, coneIDs, coneOrder []netlist.GateID
	live, dead, visit, done, inCone, obs   idSet
	walk                                   []edgeCursor
	newPos                                 []int32
	holdCone, trialCone                    sim.Cone
	edit                                   sim.Edit
}

// coneItem is a gate on a depth-bounded walk.
type coneItem struct {
	id netlist.GateID
	d  int
}

// newAnalyzer returns the region analysis of c's current netlist.
func newAnalyzer(c *netlist.Circuit, opt regionOptions) (*analyzer, error) {
	a := &analyzer{c: c, opt: opt, cand: new(region), spare: new(region)}
	return a, a.reset()
}

// reset re-reads the circuit after a committed edit: its topological
// order and its size.
func (a *analyzer) reset() error {
	order, err := a.c.TopoOrder()
	if err != nil {
		return err
	}
	n := a.c.NumIDs()
	a.topoPos = slices.Grow(a.topoPos[:0], n)[:n]
	for i := range a.topoPos {
		a.topoPos[i] = -1
	}
	for i, id := range order {
		a.topoPos[id] = int32(i)
	}
	a.nets = slices.Grow(a.nets[:0], n)[:n]
	if len(a.refs) < n {
		a.refs = append(a.refs, make([]int32, n-len(a.refs))...)
		a.refMark = append(a.refMark, make([]uint32, n-len(a.refMark))...)
	}
	return nil
}

// keep hands the last analysis over to the caller, who holds it as its
// best region: the next analysis writes to the other buffer. A kept
// region is overwritten only by an analysis that runs after another
// region was kept.
func (a *analyzer) keep() { a.cand, a.spare = a.spare, a.cand }

// analyze evaluates one fault candidate; it returns nil when the
// candidate violates a bound or needs more than budget key bits (the
// caller rejects such a region anyway). The region it returns is
// overwritten by the next analysis unless the caller keeps it.
func (a *analyzer) analyze(f atpg.Fault, budget int) *region {
	g := a.c.Gate(f.Net)
	if g.Type.IsSource() || g.Type == netlist.Output || g.DontTouch {
		return nil
	}
	if !a.growBackward(f.Net) {
		return nil
	}
	// Most candidates fail on their activation set, which the backward
	// region already fixes: reject those before the far costlier
	// forward growth and trim loop.
	if kb := a.backwardKeyBits(f); kb <= 0 || kb > budget {
		return nil
	}
	return a.analyzeGrown(f)
}

// analyzeGrown is analyze after the backward region is chosen: it
// grows the forward shadow into the region, settles the boundary and
// costs the transformation.
func (a *analyzer) analyzeGrown(f atpg.Fault) *region {
	c, opt := a.c, a.opt
	a.growForward(f.Net)
	if len(a.support) == 0 || len(a.support) > opt.MaxSupport {
		return nil
	}

	// Trim loop: evaluate the region; boundary gates whose faulty
	// function is too dense to re-synthesize economically are ejected
	// (with their in-region descendants) and the region re-evaluated.
	// This settles on the same boundary a cost-driven synthesis run
	// would: simple re-expressible logic in, dense logic out.
	var n, size, words int
	var vWord uint64
	if f.StuckAt {
		vWord = ^uint64(0)
	}
	a.sortRegion()
	for iter := 0; ; iter++ {
		if iter > 8 || !a.fwd.has(f.Net) {
			return nil
		}
		n = len(a.support)
		if n == 0 || n > opt.MaxSupport {
			return nil
		}
		size = 1 << uint(n)
		// The region's gates in topological order: the trim loop only
		// ejects gates, so the previous order, filtered, is still sorted.
		a.order = slices.DeleteFunc(a.order, func(id netlist.GateID) bool { return !a.region.has(id) })
		a.boundary = a.boundary[:0]
		for _, id := range a.order {
			if !a.fwd.has(id) {
				continue
			}
			for _, s := range c.Fanouts(id) {
				if !a.region.has(s) {
					a.boundary = append(a.boundary, id)
					break
				}
			}
		}
		if len(a.boundary) == 0 {
			return nil
		}

		// Two compiled passes over the region: the good circuit, and
		// the faulty one, which re-evaluates the forward shadow with
		// the fault net held at v.
		good, faulty := &a.good, &a.faulty
		if good.Recompile(c, a.order) != nil {
			return nil
		}
		a.shadow = a.shadow[:0]
		for _, id := range a.order {
			if id != f.Net && a.fwd.has(id) {
				a.shadow = append(a.shadow, id)
			}
		}
		if faulty.Recompile(c, a.shadow) != nil {
			return nil
		}

		words = (size + 63) / 64
		nb := len(a.boundary)
		a.goodTT = slices.Grow(a.goodTT[:0], nb*words)[:nb*words]
		a.faultyTT = slices.Grow(a.faultyTT[:0], nb*words)[:nb*words]
		a.actTT = slices.Grow(a.actTT[:0], words)[:words]
		a.forced = slices.Grow(a.forced[:0], n)[:n]
		nets := a.nets
		for ch := 0; ch < words; ch++ {
			sim.ExhaustiveWords(a.forced, n, ch)
			for i, s := range a.support {
				nets[s] = a.forced[i]
			}
			good.Eval(nets)
			a.actTT[ch] = nets[f.Net] ^ vWord
			for bi, b := range a.boundary {
				a.goodTT[bi*words+ch] = nets[b]
			}
			nets[f.Net] = vWord
			faulty.Eval(nets)
			for bi, b := range a.boundary {
				switch {
				case b == f.Net:
					a.faultyTT[bi*words+ch] = vWord
				case a.fwd.has(b):
					a.faultyTT[bi*words+ch] = nets[b]
				default:
					a.faultyTT[bi*words+ch] = a.goodTT[bi*words+ch]
				}
			}
		}

		// Identify boundaries too dense to rebuild.
		a.evict = a.evict[:0]
		mask := lowMask(size)
		for bi, b := range a.boundary {
			tt := a.faultyTT[bi*words : (bi+1)*words]
			ones := 0
			for ch, w := range tt {
				if ch == len(tt)-1 {
					w &= mask
				}
				ones += popcount(w)
			}
			if min(ones, size-ones) > opt.MaxSOP && b != f.Net {
				a.evict = append(a.evict, b)
			}
		}
		if len(a.evict) == 0 {
			// Region settled: extract the activation cover.
			a.act = appendOnes(a.act[:0], a.actTT, size, false)
			break
		}
		// Eject the dense boundaries and everything downstream of them
		// inside the forward shadow, then recompute the support.
		for _, e := range a.evict {
			a.ejectForward(e)
		}
		a.recomputeSupport()
	}
	if len(a.act) == 0 || len(a.act) > opt.MaxActOnSet {
		return nil
	}
	r := a.cand
	r.fault = f
	r.support = append(r.support[:0], a.support...)
	r.boundary = append(r.boundary[:0], a.boundary...)
	r.actCubes = append(r.actCubes[:0], a.merger.Merge(a.act, n)...)
	r.keyBits = 0
	for _, cu := range r.actCubes {
		r.keyBits += cu.Bits()
	}
	if r.keyBits == 0 {
		return nil // fault always active: nothing secret to compare
	}
	r.faultyOn = resize(r.faultyOn, len(a.boundary))
	r.cond = resize(r.cond, len(a.boundary))
	anyDiff := false
	addedArea := 0.0
	for bi := range a.boundary {
		faultyTT := a.faultyTT[bi*words : (bi+1)*words]
		goodTT := a.goodTT[bi*words : (bi+1)*words]
		on := appendOnes(r.faultyOn[bi][:0], faultyTT, size, false)
		a.diff = a.diff[:0]
		mask := lowMask(size)
		for ch := range faultyTT {
			w := faultyTT[ch] ^ goodTT[ch]
			if ch == words-1 {
				w &= mask
			}
			for ; w != 0; w &= w - 1 {
				a.diff = append(a.diff, uint32(ch*64+bits.TrailingZeros64(w)))
			}
		}
		r.faultyOn[bi] = on
		if min(len(on), size-len(on)) > opt.MaxSOP || len(a.diff) > opt.MaxActOnSet*4 {
			return nil
		}
		cond := r.cond[bi][:0]
		if len(a.diff) > 0 {
			anyDiff = true
			a.forbid = subtractSorted(a.forbid[:0], a.act, a.diff)
			cond = expandAgainstDC(cond, a.merger.Merge(a.diff, n), a.forbid, n)
		}
		r.cond[bi] = cond
		addedArea += a.sopArea(on, faultyTT, n)
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
	a.removed.clear(c.NumIDs())
	for _, id := range a.order {
		if a.fwd.has(id) {
			a.removed.add(id)
		}
	}
	for i := len(a.order) - 1; i >= 0; i-- {
		id := a.order[i]
		if a.removed.has(id) || c.Gate(id).DontTouch {
			continue
		}
		ok := true
		for _, s := range c.Fanouts(id) {
			if !a.removed.has(s) {
				ok = false
				break
			}
		}
		if ok {
			a.removed.add(id)
		}
	}
	removedArea := 0.0
	r.removed = r.removed[:0]
	for _, id := range a.order {
		if a.removed.has(id) {
			r.removed = append(r.removed, id)
			gg := c.Gate(id)
			removedArea += cellib.ForGate(gg.Type, len(gg.Fanin)).Area
		}
	}
	r.gain = removedArea - addedArea
	return r
}

// resize returns s with length n, keeping the inner slices of its
// backing array for reuse.
func resize[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	return s[:n]
}

// appendOnes appends the minterms below size whose bit in the truth
// table tt is one (zero when zeros is set), in ascending order.
func appendOnes(dst []uint32, tt []uint64, size int, zeros bool) []uint32 {
	mask := lowMask(size)
	for ch, w := range tt {
		if zeros {
			w = ^w
		}
		if ch == len(tt)-1 {
			w &= mask
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint32(ch*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// subtractSorted appends the elements of the ascending list a that are
// not in the ascending list b.
func subtractSorted(dst, a, b []uint32) []uint32 {
	j := 0
	for _, m := range a {
		for j < len(b) && b[j] < m {
			j++
		}
		if j == len(b) || b[j] != m {
			dst = append(dst, m)
		}
	}
	return dst
}

// sortRegion lists the region's gates in topological order, at a cost
// in the region's size rather than the circuit's.
func (a *analyzer) sortRegion() {
	a.order = a.order[:0]
	for _, id := range a.region.members {
		if a.region.has(id) && a.topoPos[id] >= 0 {
			a.order = append(a.order, id)
		}
	}
	slices.SortFunc(a.order, func(x, y netlist.GateID) int { return cmp.Compare(a.topoPos[x], a.topoPos[y]) })
}

// growBackward and growForward build the fault's region adaptively:
// the backward cone (bounded depth) plus a forward shadow grown
// breadth-first, admitting a sink gate only while the region's input
// cut stays within MaxSupport. Growth therefore stops exactly where the
// fault's shadow meets wide, unrelated logic — the re-synthesis
// boundary a commercial tool would also settle on.
//
// growBackward sets the region to the backward half — the deepest
// bounded cone of root whose input cut fits MaxSupport — and the
// support to that cut. It reports false when no depth fits, so the
// candidate is rejected.
func (a *analyzer) growBackward(root netlist.GateID) bool {
	c := a.c
	n := c.NumIDs()
	for db := a.opt.BackDepth; db >= 1; db-- {
		// The cone is netlist.BoundedCone's: the same depth-first walk,
		// so the same gates at every depth.
		a.cone.clear(n)
		a.stack = append(a.stack[:0], coneItem{root, 0})
		for len(a.stack) > 0 {
			it := a.stack[len(a.stack)-1]
			a.stack = a.stack[:len(a.stack)-1]
			if a.cone.has(it.id) {
				continue
			}
			g := c.Gate(it.id)
			if g.Type.IsSource() || it.d >= db {
				continue
			}
			a.cone.add(it.id)
			for _, f := range g.Fanin {
				a.stack = append(a.stack, coneItem{f, it.d + 1})
			}
		}
		a.region.clear(n)
		for _, id := range a.cone.members {
			if !c.Gate(id).DontTouch {
				a.region.add(id)
			}
		}
		a.region.add(root)
		if a.recomputeSupport(); len(a.support) <= a.opt.MaxSupport {
			return true
		}
	}
	return false
}

// growForward adds root's forward shadow to the backward region, sets
// fwd to the shadow (root included) and the support to the region's
// input cut. It counts the cut with per-net pin references, so
// admitting or rejecting a sink costs the sink's fanin, not a recount
// of the region.
func (a *analyzer) growForward(root netlist.GateID) {
	c := a.c
	a.refEpoch++
	if a.refEpoch == 0 {
		clear(a.refMark)
		a.refEpoch = 1
	}
	ref := func(id netlist.GateID) int32 {
		if a.refMark[id] != a.refEpoch {
			return 0
		}
		return a.refs[id]
	}
	bump := func(id netlist.GateID, d int32) {
		if a.refMark[id] != a.refEpoch {
			a.refMark[id], a.refs[id] = a.refEpoch, 0
		}
		a.refs[id] += d
	}
	// cut is the number of distinct non-member nets the region reads.
	cut := 0
	for _, id := range a.region.members {
		if !a.region.has(id) {
			continue
		}
		for _, fin := range c.Gate(id).Fanin {
			if ref(fin) == 0 && !a.region.has(fin) {
				cut++
			}
			bump(fin, 1)
		}
	}
	a.fwd.clear(c.NumIDs())
	a.fwd.add(root)
	a.stack = append(a.stack[:0], coneItem{root, 0})
	for head := 0; head < len(a.stack); head++ {
		it := a.stack[head]
		if it.d >= a.opt.FwdDepth {
			continue
		}
		// Fanout lists are in ascending ID order: a deterministic sink
		// order.
		for _, s := range c.Fanouts(it.id) {
			sg := c.Gate(s)
			if a.region.has(s) || sg.DontTouch || sg.Type == netlist.Output || sg.Type == netlist.DFF {
				continue
			}
			a.region.add(s)
			if ref(s) > 0 {
				cut-- // s was a cut net; now it is inside
			}
			for _, fin := range sg.Fanin {
				if ref(fin) == 0 && !a.region.has(fin) {
					cut++
				}
				bump(fin, 1)
			}
			if cut > a.opt.MaxSupport {
				for _, fin := range sg.Fanin {
					bump(fin, -1)
					if ref(fin) == 0 && !a.region.has(fin) {
						cut--
					}
				}
				a.region.del(s)
				if ref(s) > 0 {
					cut++
				}
				continue
			}
			a.fwd.add(s)
			a.stack = append(a.stack, coneItem{s, it.d + 1})
		}
	}
	a.recomputeSupport()
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
func (a *analyzer) backwardKeyBits(f atpg.Fault) int {
	n := len(a.support)
	if n == 0 {
		// A constant fault net is never active, or always active and
		// covered by a cube without a single key bit.
		return 0
	}
	a.sortRegion()
	cone := &a.good
	if cone.Recompile(a.c, a.order) != nil {
		return -1
	}
	var vWord uint64
	if f.StuckAt {
		vWord = ^uint64(0)
	}
	size := 1 << uint(n)
	mask := lowMask(size)
	a.forced = slices.Grow(a.forced[:0], n)[:n]
	a.act = a.act[:0]
	for ch := 0; ch < (size+63)/64; ch++ {
		sim.ExhaustiveWords(a.forced, n, ch)
		for i, s := range a.support {
			a.nets[s] = a.forced[i]
		}
		cone.Eval(a.nets)
		w := (a.nets[f.Net] ^ vWord) & mask
		if len(a.act)+popcount(w) > a.opt.MaxActOnSet {
			return -1
		}
		for ; w != 0; w &= w - 1 {
			a.act = append(a.act, uint32(ch*64+bits.TrailingZeros64(w)))
		}
	}
	if len(a.act) == 0 {
		return -1
	}
	keyBits := 0
	for _, cu := range a.merger.Merge(a.act, n) {
		keyBits += cu.Bits()
	}
	return keyBits
}

// ejectForward removes gate e and all its forward-shadow descendants
// from the region.
func (a *analyzer) ejectForward(e netlist.GateID) {
	a.ids = append(a.ids[:0], e)
	for len(a.ids) > 0 {
		id := a.ids[len(a.ids)-1]
		a.ids = a.ids[:len(a.ids)-1]
		if !a.fwd.has(id) {
			continue
		}
		a.fwd.del(id)
		a.region.del(id)
		for _, s := range a.c.Fanouts(id) {
			if a.fwd.has(s) {
				a.ids = append(a.ids, s)
			}
		}
	}
}

// recomputeSupport sets the support to the region's external input cut
// in ascending ID order.
func (a *analyzer) recomputeSupport() {
	a.seen.clear(a.c.NumIDs())
	a.support = a.support[:0]
	for _, id := range a.region.members {
		if !a.region.has(id) {
			continue
		}
		for _, fin := range a.c.Gate(id).Fanin {
			if !a.region.has(fin) && a.seen.add(fin) {
				a.support = append(a.support, fin)
			}
		}
	}
	slices.Sort(a.support)
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
// expand step with ¬activation as don't-cares), appending the result
// to dst. The result still agrees with the diff on the activation set
// but is typically far smaller — often a single literal. The only
// minterms a cube must not take in are the forbidden ones: activation
// minterms outside the diff, at most MaxActOnSet of them, so each trial
// cube is tested against that list instead of enumerated.
func expandAgainstDC(dst, cover []atpg.Cube, forbidden []uint32, n int) []atpg.Cube {
	allowed := func(cu atpg.Cube) bool {
		if n-cu.Bits() > 16 {
			return false // too wide to have enumerated; keep the cube as is
		}
		for _, m := range forbidden {
			if cu.Contains(m) {
				return false
			}
		}
		return true
	}
	start := len(dst)
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
		// Drop duplicates introduced by expansion.
		if !slices.Contains(dst[start:], cu) {
			dst = append(dst, cu)
		}
	}
	return dst
}

// sopArea prices a plain SOP of the on-set or its complement,
// whichever is smaller, without running QM on huge sets. tt is the
// on-set's truth table over n variables.
func (a *analyzer) sopArea(on []uint32, tt []uint64, n int) float64 {
	size := 1 << uint(n)
	if len(on) == 0 || len(on) == size {
		return cellib.ForGate(netlist.TieLo, 0).Area
	}
	minterms := on
	invert := false
	if size-len(on) < len(on) {
		a.off = appendOnes(a.off[:0], tt, size, true)
		minterms = a.off
		invert = true
	}
	cubes := a.merger.Merge(minterms, n)
	area := 0.0
	for _, cu := range cubes {
		b := cu.Bits()
		if b > 1 {
			area += cellib.ForGate(netlist.And, b).Area
		}
		area += float64(b) / 4 * cellib.ForGate(netlist.Not, 1).Area
	}
	if len(cubes) > 1 {
		area += cellib.ForGate(netlist.Or, len(cubes)).Area
	}
	if invert {
		area += cellib.ForGate(netlist.Not, 1).Area
	}
	return area
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
// bits are appended to lk. It edits the circuit in place: ATPGLock
// runs it under a netlist checkpoint, and the caller sweeps, checks
// and keeps or rolls back the edit (see tryRegion). Every rewired sink
// is recorded in a.rewired. corrupt inverts the first boundary's new
// driver, which makes the trial wrong on purpose (the
// locking.trial.corrupt fault site).
func (a *analyzer) applyRegion(lk *Locked, r *region, rng *sim.Rand, corrupt bool) (bits int, err error) {
	c := a.c
	a.rewired = a.rewired[:0]
	n := len(r.support)
	baseIdx := len(lk.KeyBits)
	inRemoved := &a.removed
	inRemoved.clear(c.NumIDs())
	for _, id := range r.removed {
		inRemoved.add(id)
	}

	// Shared inverters for negative literals, by support position.
	invOf := make([]netlist.GateID, n)
	for i := range invOf {
		invOf[i] = netlist.InvalidGate
	}
	literal := func(si int, positive bool) (netlist.GateID, error) {
		s := r.support[si]
		if positive {
			return s, nil
		}
		if inv := invOf[si]; inv != netlist.InvalidGate {
			return inv, nil
		}
		inv, aerr := c.AddGate("", netlist.Not, s)
		if aerr != nil {
			return netlist.InvalidGate, aerr
		}
		invOf[si] = inv
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
		return 0, err
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
			return 0, err
		}
		newNet := faultyNet
		if len(r.cond[bi]) > 0 {
			condNet, cerr := sop(r.cond[bi], false)
			if cerr != nil {
				return 0, cerr
			}
			restore := match
			// cond ≡ TRUE (a single all-dontcare cube) needs no AND.
			if !(len(r.cond[bi]) == 1 && r.cond[bi][0].Care == 0) {
				restore, err = c.AddGate("", netlist.And, match, condNet)
				if err != nil {
					return 0, err
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
				return 0, err
			}
			c.Gate(newNet).DontTouch = true
		}
		if corrupt && bi == 0 {
			if newNet, err = c.AddGate("", netlist.Not, newNet); err != nil {
				return 0, err
			}
		}
		// Rewiring patches b's fanout list, so walk a copy.
		a.sinks = append(a.sinks[:0], c.Fanouts(b)...)
		for _, s := range a.sinks {
			if inRemoved.has(s) {
				continue
			}
			c.ReplaceFanin(s, b, newNet)
			a.rewired = append(a.rewired, rewire{sink: s, old: b, new: newNet})
		}
	}
	for _, id := range r.removed {
		c.Kill(id)
	}
	return len(lk.KeyBits) - baseIdx, nil
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
