// Package aig implements an AND-inverter graph with complement edges
// and structural hash-consing (strashing) — the standard intermediate
// representation behind modern equivalence checkers and SAT-attack
// tooling. Circuits from internal/netlist are rewritten into two-input
// AND nodes plus inversion bits on the edges; hash-consing plus a set
// of constant/identity/complement and two-level rewrite rules merges
// structurally equivalent cones at construction time, so an XNOR in one
// circuit and a NOT(XOR) in another become the *same* node reached
// through a complemented edge.
//
// The graph is append-only and topologically stored: a node's fanins
// always precede it, so simulation, CNF emission, and cofactoring are
// single forward passes. Eval, a plain per-node loop over one
// 64-pattern word, is the graph's only simulator; Signatures runs it
// once per word. (The width-generic multi-word kernel lives in
// internal/sim.) Rewrite (rewrite.go) shrinks a graph by one pass of
// DAG-aware cut rewriting; LEC and the SAT attack run it once on every
// graph they build.
package aig

import "fmt"

// Lit is an edge reference to a node: the node index shifted left once,
// with the low bit carrying the complement (inversion) flag.
type Lit uint32

// Constant literals. Node 0 is the constant-false node of every graph;
// its complement is constant true.
const (
	False Lit = 0
	True  Lit = 1
	// Invalid marks an absent literal (e.g. a dead netlist slot).
	Invalid Lit = ^Lit(0)
)

// MakeLit builds a literal referencing node n, optionally complemented.
func MakeLit(n int, compl bool) Lit {
	l := Lit(n) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the node index the literal points at.
func (l Lit) Node() int { return int(l >> 1) }

// IsCompl reports whether the edge is complemented.
func (l Lit) IsCompl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// String renders the literal as [!]n<idx> (n0 = constant false).
func (l Lit) String() string {
	if l == Invalid {
		return "invalid"
	}
	if l.IsCompl() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// node is one AND node or leaf. Leaves and the constant node carry
// Invalid fanins.
type node struct{ f0, f1 Lit }

// Stats counts construction-time structural merging.
type Stats struct {
	// StrashHits is the number of And calls answered from the
	// hash-cons table instead of creating a node.
	StrashHits int
	// Folds is the number of And calls decided by the constant /
	// identity / complement / two-level rewrite rules.
	Folds int
}

// Graph is an append-only AND-inverter graph. Node 0 is the constant;
// leaves (primary inputs, state bits, unresolved key bits) are created
// with AddLeaf; all other nodes are two-input ANDs whose fanin edges
// may be complemented. Nodes are stored topologically: fanins always
// have smaller indices.
type Graph struct {
	nodes  []node
	leaf   []int32 // node -> leaf index, or -1
	leaves []int32 // leaf index -> node
	strash map[uint64]int32
	// Stats accumulates strash hits and rewrite folds.
	Stats Stats
}

// New returns an empty graph holding only the constant node.
func New() *Graph {
	return &Graph{
		nodes:  []node{{Invalid, Invalid}},
		leaf:   []int32{-1},
		strash: make(map[uint64]int32),
	}
}

// NumNodes returns the node count including the constant and leaves.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumAnds returns the number of AND nodes.
func (g *Graph) NumAnds() int { return len(g.nodes) - 1 - len(g.leaves) }

// NumLeaves returns the number of leaves.
func (g *Graph) NumLeaves() int { return len(g.leaves) }

// Leaf returns the (uncomplemented) literal of leaf i.
func (g *Graph) Leaf(i int) Lit { return MakeLit(int(g.leaves[i]), false) }

// AddLeaf appends a fresh leaf and returns its literal.
func (g *Graph) AddLeaf() Lit {
	n := len(g.nodes)
	g.nodes = append(g.nodes, node{Invalid, Invalid})
	g.leaf = append(g.leaf, int32(len(g.leaves)))
	g.leaves = append(g.leaves, int32(n))
	return MakeLit(n, false)
}

// IsAnd reports whether node n is an AND node (not the constant, not a
// leaf).
func (g *Graph) IsAnd(n int) bool { return n != 0 && g.leaf[n] < 0 }

// LeafIndex returns the leaf index of node n, or -1.
func (g *Graph) LeafIndex(n int) int { return int(g.leaf[n]) }

// Fanins returns the fanin literals of AND node n.
func (g *Graph) Fanins(n int) (Lit, Lit) { return g.nodes[n].f0, g.nodes[n].f1 }

// And returns a literal for a ∧ b, reusing an existing node when the
// hash-cons table or the rewrite rules allow.
func (g *Graph) And(a, b Lit) Lit {
	if a > b {
		a, b = b, a
	}
	// Constant / identity / complement rules.
	switch {
	case a == False:
		g.Stats.Folds++
		return False
	case a == True:
		g.Stats.Folds++
		return b
	case a == b:
		g.Stats.Folds++
		return a
	case a == b.Not():
		g.Stats.Folds++
		return False
	}
	// Two-level rules looking one AND level below each operand.
	if l, ok := g.simplify2(a, b); ok {
		g.Stats.Folds++
		return l
	}
	key := uint64(a)<<32 | uint64(b)
	if n, ok := g.strash[key]; ok {
		g.Stats.StrashHits++
		return MakeLit(int(n), false)
	}
	n := len(g.nodes)
	g.nodes = append(g.nodes, node{a, b})
	g.leaf = append(g.leaf, -1)
	g.strash[key] = int32(n)
	return MakeLit(n, false)
}

// simplify2 applies the standard one-level-deep strashing rewrites
// (absorption, contradiction, substitution) to a ∧ b. It reports
// whether a rewrite fired.
func (g *Graph) simplify2(a, b Lit) (Lit, bool) {
	if l, ok := g.simplify2One(a, b); ok {
		return l, true
	}
	if l, ok := g.simplify2One(b, a); ok {
		return l, true
	}
	// Both operands uncomplemented ANDs: contradiction across children.
	if !a.IsCompl() && g.IsAnd(a.Node()) && !b.IsCompl() && g.IsAnd(b.Node()) {
		a0, a1 := g.Fanins(a.Node())
		b0, b1 := g.Fanins(b.Node())
		if a0 == b0.Not() || a0 == b1.Not() || a1 == b0.Not() || a1 == b1.Not() {
			return False, true
		}
	}
	return Invalid, false
}

// simplify2One tries the rules that inspect the AND structure of s
// against the plain operand p.
func (g *Graph) simplify2One(p, s Lit) (Lit, bool) {
	if !g.IsAnd(s.Node()) {
		return Invalid, false
	}
	s0, s1 := g.Fanins(s.Node())
	if !s.IsCompl() {
		// p ∧ (s0 ∧ s1)
		if p == s0 || p == s1 {
			return s, true // absorption
		}
		if p == s0.Not() || p == s1.Not() {
			return False, true // contradiction
		}
		return Invalid, false
	}
	// p ∧ ¬(s0 ∧ s1)
	if p == s0.Not() || p == s1.Not() {
		return p, true // the NAND is already satisfied by p
	}
	if p == s0 {
		return g.And(p, s1.Not()), true // p ∧ ¬(p ∧ s1) = p ∧ ¬s1
	}
	if p == s1 {
		return g.And(p, s0.Not()), true
	}
	return Invalid, false
}

// Or returns a literal for a ∨ b (De Morgan over And).
func (g *Graph) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal for a ⊕ b. The construction is canonical
// (¬(¬(a∧¬b) ∧ ¬(¬a∧b))), so an XNOR elsewhere strashes to the same
// node reached through a complemented edge.
func (g *Graph) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns a literal for the netlist MUX semantics: sel=0 selects a,
// sel=1 selects b.
func (g *Graph) Mux(sel, a, b Lit) Lit {
	return g.Or(g.And(sel.Not(), a), g.And(sel, b))
}

// LitWord reads the 64-pattern word of a literal from a node buffer,
// applying the complement.
func LitWord(buf []uint64, l Lit) uint64 {
	w := buf[l.Node()]
	if l.IsCompl() {
		return ^w
	}
	return w
}

// Eval simulates 64 parallel patterns: leafWords holds one stimulus
// word per leaf (in leaf-index order) and buf, of length NumNodes,
// receives the value of every node.
func (g *Graph) Eval(leafWords, buf []uint64) {
	buf[0] = 0
	for n := 1; n < len(g.nodes); n++ {
		if li := g.leaf[n]; li >= 0 {
			buf[n] = leafWords[li]
			continue
		}
		nd := &g.nodes[n]
		buf[n] = LitWord(buf, nd.f0) & LitWord(buf, nd.f1)
	}
}

// Signatures simulates `words` 64-pattern words, one Eval pass per
// word; stim(leaf, word) supplies the stimulus. The result is a flat
// array indexed [node*words+k].
func (g *Graph) Signatures(words int, stim func(leaf, word int) uint64) []uint64 {
	n := g.NumNodes()
	sigs := make([]uint64, n*words)
	leafW := make([]uint64, g.NumLeaves())
	buf := make([]uint64, n)
	for k := 0; k < words; k++ {
		for i := range leafW {
			leafW[i] = stim(i, k)
		}
		g.Eval(leafW, buf)
		for nd, v := range buf {
			sigs[nd*words+k] = v
		}
	}
	return sigs
}

// Cone marks the transitive fanin of the given literals (including
// their own nodes) in the returned per-node bitmap.
func (g *Graph) Cone(roots ...Lit) []bool {
	mark := make([]bool, len(g.nodes))
	var stack []int
	push := func(l Lit) {
		if n := l.Node(); !mark[n] {
			mark[n] = true
			stack = append(stack, n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !g.IsAnd(n) {
			continue
		}
		push(g.nodes[n].f0)
		push(g.nodes[n].f1)
	}
	return mark
}
