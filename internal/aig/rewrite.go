package aig

import (
	"slices"
	"sync/atomic"
)

// Local rewriting (ABC rewrite/refactor style)
//
// Rewrite shrinks a graph by reconstruction: nodes are re-derived in
// topological order into a fresh graph, and for every AND node the pass
// enumerates its 4-feasible cuts, canonicalizes each cut function by
// NPN class, and compares the direct one-node mapping against a
// precomputed minimal strash structure of the class. A structure wins
// when the nodes it adds are fewer than the nodes the direct mapping
// would keep alive (the cut's maximum fanout-free cone) — the classic
// DAG-aware gain rule. A final cone-extraction pass copies only the
// logic reachable from the caller's roots, so bypassed cone interiors
// are dropped rather than merely orphaned.
//
// The structure library is itself a tiny strashed Graph over four
// leaves: each canonical function is synthesized once (Shannon/ITE
// decomposition, best split variable by resulting cone size, all
// memoized) and instantiated per cut by replaying its cone against the
// target graph, where input/output complements ride for free on the
// edges. Every canonicalized class is verified by 16-minterm truth
// table simulation before it is ever instantiated, so an NPN transform
// bug degrades to a missed optimization, never to wrong logic.
//
// The NPN canonical form of a truth table (the canonical table and the
// transform reaching it) is a pure function of the table, so it is
// computed once per process and memoized in a lock-free table shared by
// every Rewrite (npnMemo). The library, its synthesis and the binding
// verification stay per run: the library's node numbering follows the
// run's synthesis order, and it fixes the order in which structures are
// instantiated, hence the rewritten graph's node ids.
//
// Everything is deterministic: cuts, classes, and candidate choices are
// evaluated in fixed index order and no map is ever iterated.

// cutsPerNode caps the non-trivial cuts kept per node.
const cutsPerNode = 8

// RewriteStats reports what a Rewrite run did.
type RewriteStats struct {
	// Cuts is the number of (non-trivial) cuts enumerated.
	Cuts int
	// Classes is the number of distinct cut functions synthesized.
	Classes int
	// Rewrites is the number of nodes replaced by a library structure.
	Rewrites int
	// NodesBefore and NodesAfter are the AND counts around the run.
	NodesBefore, NodesAfter int
}

// Saved returns the AND-node reduction of the run.
func (st RewriteStats) Saved() int { return st.NodesBefore - st.NodesAfter }

// MapLit translates a literal through a node map produced by Rewrite
// (old node index -> new literal). Invalid maps to Invalid, as do nodes
// the rewrite dropped (outside every root cone).
func MapLit(m []Lit, l Lit) Lit {
	if l == Invalid {
		return Invalid
	}
	t := m[l.Node()]
	if t == Invalid {
		return Invalid
	}
	return t.NotIf(l.IsCompl())
}

// Remap rewrites every literal of the map in place through a Rewrite
// node map.
func (lm LitMap) Remap(m []Lit) {
	for i := range lm {
		lm[i] = MapLit(m, lm[i])
	}
}

// Rewrite reduces the graph by one pass of cut rewriting and returns
// the new graph plus a node map (old node index -> new literal). The
// map is valid for every leaf and every node inside the cone of the
// given roots; other nodes map to Invalid. Leaves are recreated in the
// same index order, so leaf-indexed caller state survives unchanged.
func Rewrite(g *Graph, roots []Lit) (*Graph, []Lit, RewriteStats) {
	st := RewriteStats{NodesBefore: g.NumAnds()}
	rw := newRewriter()
	h, m := rw.pass(g, roots, &st)
	st.Classes = len(rw.synthCache)
	st.NodesAfter = h.NumAnds()
	return h, m, st
}

// lookupAnd returns the literal And(a, b) would return without creating
// any node; ok is false when And would have to allocate. The fold and
// two-level rules mirror And exactly (including rule order), so a hit
// here is exactly a zero-cost And.
func (g *Graph) lookupAnd(a, b Lit) (Lit, bool) {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == False:
		return False, true
	case a == True:
		return b, true
	case a == b:
		return a, true
	case a == b.Not():
		return False, true
	}
	if l, ok, decided := g.lookup2(a, b); decided {
		return l, ok
	}
	if n, ok := g.strash[uint64(a)<<32|uint64(b)]; ok {
		return MakeLit(int(n), false), true
	}
	return Invalid, false
}

// lookup2 is simplify2 without node creation; decided reports whether a
// rule fired (in which case ok mirrors whether the result exists).
func (g *Graph) lookup2(a, b Lit) (l Lit, ok, decided bool) {
	if l, ok, dec := g.lookup2One(a, b); dec {
		return l, ok, true
	}
	if l, ok, dec := g.lookup2One(b, a); dec {
		return l, ok, true
	}
	if !a.IsCompl() && g.IsAnd(a.Node()) && !b.IsCompl() && g.IsAnd(b.Node()) {
		a0, a1 := g.Fanins(a.Node())
		b0, b1 := g.Fanins(b.Node())
		if a0 == b0.Not() || a0 == b1.Not() || a1 == b0.Not() || a1 == b1.Not() {
			return False, true, true
		}
	}
	return Invalid, false, false
}

func (g *Graph) lookup2One(p, s Lit) (Lit, bool, bool) {
	if !g.IsAnd(s.Node()) {
		return Invalid, false, false
	}
	s0, s1 := g.Fanins(s.Node())
	if !s.IsCompl() {
		if p == s0 || p == s1 {
			return s, true, true
		}
		if p == s0.Not() || p == s1.Not() {
			return False, true, true
		}
		return Invalid, false, false
	}
	if p == s0.Not() || p == s1.Not() {
		return p, true, true
	}
	if p == s0 {
		l, ok := g.lookupAnd(p, s1.Not())
		return l, ok, true
	}
	if p == s1 {
		l, ok := g.lookupAnd(p, s0.Not())
		return l, ok, true
	}
	return Invalid, false, false
}

// cut is one k-feasible cut: up to 4 leaf node indices (sorted
// ascending) and the 16-bit truth table of the node over them, padded
// to 4 variables (unused variables are don't-care).
type cut struct {
	leaves [4]int32
	n      int8
	tt     uint16
}

// varTT are the 4-variable minterm patterns of the cut inputs.
var varTT = [4]uint16{0xaaaa, 0xcccc, 0xf0f0, 0xff00}

// ttCof returns the negative and positive cofactors of tt w.r.t. var v
// (both padded: independent of v).
func ttCof(tt uint16, v uint) (c0, c1 uint16) {
	mask := varTT[v]
	t1 := tt & mask
	c1 = t1 | t1>>(1<<v)
	t0 := tt &^ mask
	c0 = t0 | t0<<(1<<v)
	return
}

// ttExpandTo re-expresses c's truth table over the leaf set of u (a
// superset of c's leaves). c's table depends on its first c.n inputs
// only, and leaf i of c is leaf pos[i] >= i of u with pos ascending, so
// moving the inputs from the last down, each onto its position, always
// swaps a live input with a don't-care one: one cofactor swap per
// moved input.
func ttExpandTo(c, u *cut) uint16 {
	tt := c.tt
	j := int(u.n) - 1
	for i := int(c.n) - 1; i >= 0; i-- {
		for u.leaves[j] != c.leaves[i] {
			j--
		}
		tt = ttSwap(tt, uint(i), uint(j))
	}
	return tt
}

// ttSwap exchanges inputs i <= j of tt: the minterms with x_i = 1,
// x_j = 0 trade places with those with x_i = 0, x_j = 1.
func ttSwap(tt uint16, i, j uint) uint16 {
	shift := uint(1)<<j - uint(1)<<i
	lo := varTT[i] &^ varTT[j]
	return tt&^(lo|lo<<shift) | (tt&lo)<<shift | (tt>>shift)&lo
}

// mergeCuts unions two fanin cuts into a cut of the parent AND; ok is
// false when the union needs more than 4 leaves.
func mergeCuts(ca, cb *cut, fa, fb Lit) (cut, bool) {
	var u cut
	i, j, k := 0, 0, 0
	for i < int(ca.n) || j < int(cb.n) {
		if k == 4 {
			return cut{}, false
		}
		switch {
		case j >= int(cb.n) || (i < int(ca.n) && ca.leaves[i] < cb.leaves[j]):
			u.leaves[k] = ca.leaves[i]
			i++
		case i >= int(ca.n) || cb.leaves[j] < ca.leaves[i]:
			u.leaves[k] = cb.leaves[j]
			j++
		default:
			u.leaves[k] = ca.leaves[i]
			i++
			j++
		}
		k++
	}
	u.n = int8(k)
	ta := ttExpandTo(ca, &u)
	tb := ttExpandTo(cb, &u)
	if fa.IsCompl() {
		ta = ^ta
	}
	if fb.IsCompl() {
		tb = ^tb
	}
	u.tt = ta & tb
	return u, true
}

func trivialCut(n int) cut {
	return cut{leaves: [4]int32{int32(n)}, n: 1, tt: varTT[0]}
}

// perms4 holds all 24 permutations of {0,1,2,3} in a fixed order.
var perms4 = func() (ps [24][4]uint8) {
	p := [4]uint8{0, 1, 2, 3}
	i := 0
	var rec func(k int)
	rec = func(k int) {
		if k == 4 {
			ps[i] = p
			i++
			return
		}
		for j := k; j < 4; j++ {
			p[k], p[j] = p[j], p[k]
			rec(k + 1)
			p[k], p[j] = p[j], p[k]
		}
	}
	rec(0)
	return
}()

// npnPermNib[pi][k][n] holds the bits that nibble k of a truth table,
// when it equals n, sets in the table permuted by perms4[pi]. Output
// minterm m of the permuted table reads input minterm
// src(m) = sum_v ((m >> perms4[pi][v]) & 1) << v, so a permuted table
// is the OR of four nibble lookups (ttPermute).
var npnPermNib = func() (t [24][4][16]uint16) {
	for pi, p := range perms4 {
		for m := 0; m < 16; m++ {
			src := 0
			for v := 0; v < 4; v++ {
				src |= (m >> p[v] & 1) << v
			}
			for n := 0; n < 16; n++ {
				if n>>(src&3)&1 == 1 {
					t[pi][src>>2][n] |= 1 << m
				}
			}
		}
	}
	return
}()

// ttFlip complements the inputs of tt selected by mask: the result r
// satisfies r(x) = tt(x ^ mask), one cofactor swap per flipped input.
func ttFlip(tt uint16, mask uint32) uint16 {
	for v := uint(0); v < 4; v++ {
		if mask>>v&1 == 1 {
			s := uint(1) << v
			tt = (tt&varTT[v])>>s | (tt&^varTT[v])<<s
		}
	}
	return tt
}

// ttPermute permutes tt's inputs by perms4[pi]: the result r satisfies
// r(y) = tt(x) with x[v] = y[perms4[pi][v]].
func ttPermute(tt uint16, pi int) uint16 {
	t := &npnPermNib[pi]
	return t[0][tt&15] | t[1][tt>>4&15] | t[2][tt>>8&15] | t[3][tt>>12]
}

// npnMemo holds the NPN canonicalization of every 16-bit truth table
// computed so far in this process, packed by npnSearch (0 = not yet
// computed). The entry is a pure function of its index, so concurrent
// rewriters may race to fill one and store the same word; it is never
// invalidated.
var npnMemo [1 << 16]atomic.Uint32

// Packing of an npnMemo entry.
const (
	npnPermShift = 16 // 5 bits: index into perms4
	npnMaskShift = 21 // 4 bits: input complement mask
	npnOutShift  = 25 // 1 bit: output complement
	npnValid     = 1 << 26
)

// npnCanon returns the NPN canonical form of tt, the smallest table
// ttFlip/ttPermute/complement can turn it into, and the first transform
// reaching it in (output phase, input mask, permutation) order:
// best = outC ^ ttPermute(ttFlip(tt, mask), pi).
func npnCanon(tt uint16) (best uint16, pi int, mask, outC uint32) {
	e := npnMemo[tt].Load()
	if e == 0 {
		e = npnSearch(tt)
		npnMemo[tt].Store(e)
	}
	return uint16(e), int(e >> npnPermShift & 31), e >> npnMaskShift & 15, e >> npnOutShift & 1
}

// npnSearch is the exhaustive search behind npnCanon (24 permutations x
// 16 input masks x 2 output phases). The complemented phase's minimum
// is the complement of the plain phase's maximum, so one scan over the
// 384 plain transforms finds both; each keeps its first occurrence in
// (mask, pi) order, and the plain phase wins ties because it is
// scanned first.
func npnSearch(tt uint16) uint32 {
	lo, hi := ttPermute(tt, 0), ttPermute(tt, 0)
	var loAt, hiAt uint32
	for mask := uint32(0); mask < 16; mask++ {
		f := ttFlip(tt, mask)
		for pi := range perms4 {
			t := ttPermute(f, pi)
			at := uint32(pi)<<npnPermShift | mask<<npnMaskShift
			if t < lo {
				lo, loAt = t, at
			}
			if t > hi {
				hi, hiAt = t, at
			}
		}
	}
	if ^hi < lo {
		return uint32(^hi) | hiAt | 1<<npnOutShift | npnValid
	}
	return uint32(lo) | loAt | npnValid
}

// npnRec is the cached canonicalization of one raw truth table: the
// library literal of its canonical class plus the binding that
// reconstructs the raw function — canonical input j is the cut leaf
// inv[j], complemented when cfl[j], dead[j] when the function does not
// depend on it; outC complements the structure's output.
type npnRec struct {
	lit  Lit // canonical structure root in the library graph
	inv  [4]uint8
	cfl  [4]bool
	dead [4]bool
	outC bool
	ok   bool // truth-table verification of the binding passed
}

// rewriter holds the structure library and all scratch state shared
// across passes of one Rewrite run.
type rewriter struct {
	lib        *Graph
	libIn      [4]Lit
	synthCache map[uint16]Lit
	canonCache map[uint16]npnRec

	// library cones: coneAt[n] locates root node n's sorted cone in
	// cones once it is computed (the library only grows, so a node's
	// cone never changes); the rest is walk and evaluation scratch.
	coneAt  []coneSpan
	cones   []int32
	libMark []int32
	libEp   int32
	libVal  []uint16
	instLit []Lit

	// old-graph MFFC scratch
	ref     []int32
	cutMark []int32
	epoch   int32
	stack   []int32
	derefs  []int32
}

func newRewriter() *rewriter {
	rw := &rewriter{
		lib:        New(),
		synthCache: make(map[uint16]Lit),
		canonCache: make(map[uint16]npnRec),
	}
	for i := range rw.libIn {
		rw.libIn[i] = rw.lib.AddLeaf()
	}
	return rw
}

// synth returns the library literal computing tt over the four library
// inputs, synthesizing (and memoizing) it on first use.
func (rw *rewriter) synth(tt uint16) Lit {
	if l, ok := rw.synthCache[tt]; ok {
		return l
	}
	var res Lit
	switch tt {
	case 0:
		res = False
	case 0xffff:
		res = True
	default:
		res = Invalid
		for v := 0; v < 4; v++ {
			if tt == varTT[v] {
				res = rw.libIn[v]
				break
			}
			if tt == ^varTT[v] {
				res = rw.libIn[v].Not()
				break
			}
		}
		if res == Invalid {
			bestCost := -1
			for v := uint(0); v < 4; v++ {
				c0, c1 := ttCof(tt, v)
				if c0 == c1 {
					continue
				}
				cand := rw.synthITE(v, c0, c1)
				cost := rw.libConeAnds(cand)
				if bestCost < 0 || cost < bestCost {
					bestCost, res = cost, cand
				}
			}
		}
	}
	rw.synthCache[tt] = res
	return res
}

// synthITE builds ITE(x_v, f1, f0) in the library with the standard
// AND/OR/XOR special cases (3 ANDs worst case, fewer when a branch is
// constant or the branches complement each other).
func (rw *rewriter) synthITE(v uint, c0, c1 uint16) Lit {
	x := rw.libIn[v]
	f0 := rw.synth(c0)
	f1 := rw.synth(c1)
	lib := rw.lib
	switch {
	case f0 == False:
		return lib.And(x, f1)
	case f0 == True:
		return lib.Or(x.Not(), f1)
	case f1 == False:
		return lib.And(x.Not(), f0)
	case f1 == True:
		return lib.Or(x, f0)
	case f0 == f1.Not():
		return lib.Xor(x, f0)
	}
	return lib.Mux(x, f0, f1)
}

// coneSpan is cones[off:end]; end == 0 means not computed yet.
type coneSpan struct{ off, end int32 }

// libCone returns the cone node ids of root within the library,
// ascending (so fanins precede fanouts). Each root's cone is walked and
// sorted once per Rewrite run.
func (rw *rewriter) libCone(root Lit) []int32 {
	if n := rw.lib.NumNodes(); len(rw.libMark) < n {
		rw.libMark = append(rw.libMark, make([]int32, n-len(rw.libMark))...)
		rw.libVal = append(rw.libVal, make([]uint16, n-len(rw.libVal))...)
		rw.instLit = append(rw.instLit, make([]Lit, n-len(rw.instLit))...)
		rw.coneAt = append(rw.coneAt, make([]coneSpan, n-len(rw.coneAt))...)
	}
	if sp := rw.coneAt[root.Node()]; sp.end > 0 {
		return rw.cones[sp.off:sp.end:sp.end]
	}
	rw.libEp++
	off := int32(len(rw.cones))
	stack := append(rw.stack[:0], int32(root.Node()))
	rw.libMark[root.Node()] = rw.libEp
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rw.cones = append(rw.cones, n)
		if !rw.lib.IsAnd(int(n)) {
			continue
		}
		f0, f1 := rw.lib.Fanins(int(n))
		for _, c := range [2]int32{int32(f0.Node()), int32(f1.Node())} {
			if rw.libMark[c] != rw.libEp {
				rw.libMark[c] = rw.libEp
				stack = append(stack, c)
			}
		}
	}
	rw.stack = stack[:0]
	end := int32(len(rw.cones))
	slices.Sort(rw.cones[off:end])
	rw.coneAt[root.Node()] = coneSpan{off: off, end: end}
	return rw.cones[off:end:end]
}

// libConeAnds counts the AND nodes in root's library cone (the
// synthesis cost measure).
func (rw *rewriter) libConeAnds(root Lit) int {
	c := 0
	for _, n := range rw.libCone(root) {
		if rw.lib.IsAnd(int(n)) {
			c++
		}
	}
	return c
}

// evalLib simulates root's library cone over 16-minterm truth-table
// inputs.
func (rw *rewriter) evalLib(root Lit, tin [4]uint16) uint16 {
	cone := rw.libCone(root)
	for _, nn := range cone {
		n := int(nn)
		switch {
		case n == 0:
			rw.libVal[n] = 0
		case !rw.lib.IsAnd(n):
			rw.libVal[n] = tin[rw.lib.LeafIndex(n)]
		default:
			f0, f1 := rw.lib.Fanins(n)
			a := rw.libVal[f0.Node()]
			if f0.IsCompl() {
				a = ^a
			}
			b := rw.libVal[f1.Node()]
			if f1.IsCompl() {
				b = ^b
			}
			rw.libVal[n] = a & b
		}
	}
	v := rw.libVal[root.Node()]
	if root.IsCompl() {
		v = ^v
	}
	return v
}

// canon canonicalizes a raw cut function: the process-wide NPN
// canonical form (npnCanon), synthesis of the canonical class in this
// run's library, and a truth-table verification of the instantiation
// binding.
func (rw *rewriter) canon(tt uint16) npnRec {
	if r, ok := rw.canonCache[tt]; ok {
		return r
	}
	var rec npnRec
	best, pi, bMask, bOut := npnCanon(tt)
	bPerm := perms4[pi]
	// ctt(y) = bOut ^ tt(x) with x[v] = y[bPerm[v]] ^ bMask[v], so the
	// raw function is tt(x) = bOut ^ ctt(y) with y[j] = x[inv[j]] ^
	// cfl[j] where inv[bPerm[v]] = v.
	for v := 0; v < 4; v++ {
		rec.inv[bPerm[v]] = uint8(v)
	}
	for j := 0; j < 4; j++ {
		rec.cfl[j] = bMask>>rec.inv[j]&1 == 1
		c0, c1 := ttCof(tt, uint(rec.inv[j]))
		rec.dead[j] = c0 == c1
	}
	rec.outC = bOut == 1
	rec.lit = rw.synth(best)
	// Verify the binding end to end: dead inputs pinned to constant
	// false exactly as instantiation will pin them.
	var tin [4]uint16
	for j := 0; j < 4; j++ {
		switch {
		case rec.dead[j]:
			tin[j] = 0
		case rec.cfl[j]:
			tin[j] = ^varTT[rec.inv[j]]
		default:
			tin[j] = varTT[rec.inv[j]]
		}
	}
	got := rw.evalLib(rec.lit, tin)
	if rec.outC {
		got = ^got
	}
	rec.ok = got == tt
	rw.canonCache[tt] = rec
	return rec
}

// costOf counts how many fresh nodes instantiating root's structure
// over the bound target literals would add to h, by replaying the cone
// against h's fold rules and strash table without creating anything.
func (rw *rewriter) costOf(root Lit, tl [4]Lit, h *Graph) int {
	cone := rw.libCone(root)
	cost := 0
	for _, nn := range cone {
		n := int(nn)
		switch {
		case n == 0:
			rw.instLit[n] = False
		case !rw.lib.IsAnd(n):
			rw.instLit[n] = tl[rw.lib.LeafIndex(n)]
		default:
			f0, f1 := rw.lib.Fanins(n)
			a, b := rw.instOf(f0), rw.instOf(f1)
			if a == Invalid || b == Invalid {
				cost++
				rw.instLit[n] = Invalid
				continue
			}
			if r, ok := h.lookupAnd(a, b); ok {
				rw.instLit[n] = r
			} else {
				cost++
				rw.instLit[n] = Invalid
			}
		}
	}
	return cost
}

func (rw *rewriter) instOf(f Lit) Lit {
	base := rw.instLit[f.Node()]
	if base == Invalid {
		return Invalid
	}
	return base.NotIf(f.IsCompl())
}

// buildOf instantiates root's structure in h for real and returns the
// resulting literal.
func (rw *rewriter) buildOf(root Lit, tl [4]Lit, h *Graph) Lit {
	cone := rw.libCone(root)
	for _, nn := range cone {
		n := int(nn)
		switch {
		case n == 0:
			rw.instLit[n] = False
		case !rw.lib.IsAnd(n):
			rw.instLit[n] = tl[rw.lib.LeafIndex(n)]
		default:
			f0, f1 := rw.lib.Fanins(n)
			rw.instLit[n] = h.And(rw.instOf(f0), rw.instOf(f1))
		}
	}
	base := rw.instLit[root.Node()]
	return base.NotIf(root.IsCompl())
}

// mffcSize measures the maximum fanout-free cone of n above the cut:
// the nodes (n included) that lose their last reference when n's
// function is delivered without its current structure.
func (rw *rewriter) mffcSize(g *Graph, n int, c *cut) int {
	rw.epoch++
	for i := 0; i < int(c.n); i++ {
		rw.cutMark[c.leaves[i]] = rw.epoch
	}
	rw.derefs = rw.derefs[:0]
	stack := append(rw.stack[:0], int32(n))
	count := 0
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		f0, f1 := g.Fanins(int(x))
		for _, f := range [2]Lit{f0, f1} {
			cn := int32(f.Node())
			if !g.IsAnd(int(cn)) || rw.cutMark[cn] == rw.epoch {
				continue
			}
			rw.ref[cn]--
			rw.derefs = append(rw.derefs, cn)
			if rw.ref[cn] == 0 {
				stack = append(stack, cn)
			}
		}
	}
	rw.stack = stack[:0]
	for _, d := range rw.derefs {
		rw.ref[d]++
	}
	return count
}

// pass runs one reconstruction pass over g and extracts the cones of
// the roots; it returns the new graph and the old-node -> new-literal
// map.
func (rw *rewriter) pass(g *Graph, roots []Lit, st *RewriteStats) (*Graph, []Lit) {
	h := New()
	m := make([]Lit, g.NumNodes())
	for i := range m {
		m[i] = Invalid
	}
	m[0] = False
	for i := 0; i < g.NumLeaves(); i++ {
		m[g.leaves[i]] = h.AddLeaf()
	}
	// Old-graph reference counts for the MFFC measure; roots count as
	// external references so observable nodes are never written off.
	if len(rw.ref) < g.NumNodes() {
		rw.ref = make([]int32, g.NumNodes())
		rw.cutMark = make([]int32, g.NumNodes())
	} else {
		rw.ref = rw.ref[:g.NumNodes()]
		rw.cutMark = rw.cutMark[:g.NumNodes()]
		for i := range rw.ref {
			rw.ref[i] = 0
			rw.cutMark[i] = 0
		}
	}
	rw.epoch = 0
	for n := 1; n < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			f0, f1 := g.Fanins(n)
			rw.ref[f0.Node()]++
			rw.ref[f1.Node()]++
		}
	}
	for _, r := range roots {
		if r != Invalid {
			rw.ref[r.Node()]++
		}
	}

	cuts := make([][]cut, g.NumNodes())
	cuts[0] = []cut{trivialCut(0)}
	var cand []cut
	var tl [4]Lit
	for n := 1; n < g.NumNodes(); n++ {
		if !g.IsAnd(n) {
			cuts[n] = []cut{trivialCut(n)}
			continue
		}
		f0, f1 := g.Fanins(n)
		// Enumerate this node's cuts from the fanin cut sets.
		cand = cand[:0]
		for i := range cuts[f0.Node()] {
			for j := range cuts[f1.Node()] {
				u, ok := mergeCuts(&cuts[f0.Node()][i], &cuts[f1.Node()][j], f0, f1)
				if !ok {
					continue
				}
				dup := false
				for k := range cand {
					if cand[k].n == u.n && cand[k].leaves == u.leaves {
						dup = true
						break
					}
				}
				if !dup {
					cand = append(cand, u)
				}
			}
		}
		slices.SortStableFunc(cand, func(a, b cut) int { return int(a.n) - int(b.n) })
		if len(cand) > cutsPerNode {
			cand = cand[:cutsPerNode]
		}
		st.Cuts += len(cand)

		// Candidate choice: direct mapping vs the best library structure.
		ma, mb := MapLit(m, f0), MapLit(m, f1)
		dCost := 1
		if _, ok := h.lookupAnd(ma, mb); ok {
			dCost = 0
		}
		bestGain := 0
		bestCut := -1
		var bestRec npnRec
		for ci := range cand {
			c := &cand[ci]
			if c.n == 1 && c.leaves[0] == int32(n) {
				continue // trivial
			}
			rec := rw.canon(c.tt)
			if !rec.ok {
				continue
			}
			usable := true
			for j := 0; j < 4; j++ {
				if rec.dead[j] {
					tl[j] = False
					continue
				}
				if int(rec.inv[j]) >= int(c.n) {
					usable = false
					break
				}
				tl[j] = m[c.leaves[rec.inv[j]]].NotIf(rec.cfl[j])
			}
			if !usable {
				continue
			}
			gain := rw.mffcSize(g, n, c) - 1 + dCost - rw.costOf(rec.lit, tl, h)
			if gain > bestGain {
				bestGain, bestCut, bestRec = gain, ci, rec
			}
		}
		if bestCut >= 0 {
			c := &cand[bestCut]
			for j := 0; j < 4; j++ {
				if bestRec.dead[j] {
					tl[j] = False
				} else {
					tl[j] = m[c.leaves[bestRec.inv[j]]].NotIf(bestRec.cfl[j])
				}
			}
			m[n] = rw.buildOf(bestRec.lit, tl, h).NotIf(bestRec.outC)
			st.Rewrites++
		} else {
			m[n] = h.And(ma, mb)
		}
		cand = append(cand, trivialCut(n))
		cuts[n] = append([]cut(nil), cand...)
	}

	// Extraction: copy only the cones of the mapped roots (plus every
	// leaf) into a clean graph, dropping bypassed interiors and any
	// greedy construction that ended up unreferenced.
	h2 := New()
	m2 := make([]Lit, h.NumNodes())
	for i := range m2 {
		m2[i] = Invalid
	}
	m2[0] = False
	for i := 0; i < h.NumLeaves(); i++ {
		m2[h.leaves[i]] = h2.AddLeaf()
	}
	hroots := make([]Lit, 0, len(roots))
	for _, r := range roots {
		if hr := MapLit(m, r); hr != Invalid {
			hroots = append(hroots, hr)
		}
	}
	need := h.Cone(hroots...)
	for n := 1; n < h.NumNodes(); n++ {
		if !need[n] || !h.IsAnd(n) {
			continue
		}
		f0, f1 := h.Fanins(n)
		m2[n] = h2.And(MapLit(m2, f0), MapLit(m2, f1))
	}
	for i := range m {
		m[i] = MapLit(m2, m[i])
	}
	return h2, m
}

// Rewrite runs the rewriting pass over the builder's graph, keeping
// every leaf and the cones of the given roots, and installs the result:
// the builder's graph and leaf registry are swapped to the rewritten
// graph. The returned node map translates old literals (see MapLit /
// LitMap.Remap for LitMaps the caller still holds).
func (b *Builder) Rewrite(roots []Lit) ([]Lit, RewriteStats) {
	ng, m, st := Rewrite(b.g, roots)
	b.g = ng
	for name, l := range b.leafByName {
		b.leafByName[name] = MapLit(m, l)
	}
	return m, st
}
