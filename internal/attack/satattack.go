package attack

import (
	"errors"
	"fmt"

	"repro/internal/aig"
	"repro/internal/locking"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sim"
)

// SATResult reports an oracle-guided SAT attack run.
type SATResult struct {
	// Key is the recovered key (functionally correct when Converged).
	Key locking.Key
	// Iterations is the number of distinguishing-input queries used.
	Iterations int
	// Converged is true when no distinguishing input remained.
	Converged bool
	// OracleEvals is the number of oracle evaluations, one per
	// distinguishing-input query.
	OracleEvals int
	// SolveCalls is the number of SAT solver invocations.
	SolveCalls int
	// BaseClauses is the problem-clause count of the one-time shared
	// encoding (both keyed copies plus the miter).
	BaseClauses int
	// AddedClauses is the number of problem clauses added across all
	// iterations (cofactor-cone constraints), counted as they are
	// installed: clauses that solver inprocessing later deletes still
	// count. The incremental encoding keeps this
	// far below re-encoding the circuit per iteration; the regression
	// tests assert the bound.
	AddedClauses int
	// AIGNodes is the AND-node count of the shared strashed graph both
	// keyed copies are encoded from (key TIE cells modeled as leaves).
	AIGNodes int
	// AIGStrashHits counts hash-cons hits while building that graph.
	AIGStrashHits int
	// KeyDepNodes is the number of AIG nodes whose function depends on
	// a key leaf; only these are encoded per copy — everything else
	// strashes away into one shared encoding across the two copies.
	KeyDepNodes int
	// AIGRewriteSaved is the AND-node reduction of the cut-rewriting
	// pass run before encoding (AIGNodes reflects the rewritten graph).
	AIGRewriteSaved int
}

// ErrSolverStopped reports a SAT attack whose solver answered Unknown:
// the solver's stop flag was raised before a query was decided. Only an
// Unsat miter means no distinguishing input is left.
var ErrSolverStopped = errors.New("attack: SAT solver stopped before deciding")

// SATAttackOptions tunes SATAttackOpt.
type SATAttackOptions struct {
	// MaxIter caps the number of distinguishing-input queries
	// (default 256).
	MaxIter int
	// Solver, when non-nil, is the SAT backend for the whole attack
	// (default: a one-member portfolio). It must be fresh (no variables
	// or clauses): the attack encodes its incremental miter into it and
	// owns it for the run. A daemon injects a portfolio capped at its
	// width limit here.
	Solver sat.Interface
}

// SATAttackOpt runs the oracle-guided key-extraction attack of
// Subramanyan et al. [19] against a locked netlist. It exists to
// demonstrate the paper's Sec. II-C point: the attack *requires* an
// activated chip as an I/O oracle, and in the split manufacturing
// threat model no such oracle exists (fabrication is not complete and
// the end-user is trusted) — so the locked FEOL cannot be attacked this
// way. Given an oracle it recovers a correct key on small designs,
// which is exactly what our tests assert.
//
// The oracle must be the original (unlocked) circuit. The attack runs on
// the strashed AND-inverter graph of the locked circuit with the key
// TIE cells modeled as free leaves: the graph is built once, both
// keyed copies and the miter are Tseitin-encoded from it exactly once
// (key-independent nodes — identical in both copies by construction —
// are emitted once and shared), and each distinguishing input adds
// only oracle-consistency constraints encoded over the key-dependent
// cofactor cone of the AIG under that input (constant nodes are folded
// away and XOR/MUX shapes are emitted with their 4-clause definitions,
// so the growth per iteration is proportional to the key cone, not the
// circuit).
func SATAttackOpt(lk *locking.Locked, oracle *netlist.Circuit, opt SATAttackOptions) (*SATResult, error) {
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 256
	}
	c := lk.Circuit
	s := opt.Solver
	if s == nil {
		s = sat.NewPortfolio(sat.PortfolioOptions{})
	}

	// One shared strashed graph: key TIE cells become leaves, so cones
	// that do not reach a key leaf are key-independent by construction.
	bld := aig.NewBuilder()
	keyIdxByName := make(map[string]int, len(lk.KeyBits))
	for i, kb := range lk.KeyBits {
		name := c.Gate(kb.Tie).Name
		bld.ForceLeaf(name)
		keyIdxByName[name] = i
	}
	m, err := bld.Add(c)
	if err != nil {
		return nil, err
	}

	// Observable literals: outputs by position, then next-state bits.
	var obsLits []aig.Lit
	for _, o := range c.Outputs() {
		obsLits = append(obsLits, m[o])
	}
	for _, ff := range c.DFFs() {
		obsLits = append(obsLits, m[c.Gate(ff).Fanin[0]])
	}

	// Cut rewriting shrinks the observable cones — and with them both
	// keyed encodings and every per-query cofactor cone — before any
	// CNF exists. Key leaves survive by construction (leaves are never
	// rewritten away), so the leaf-role bookkeeping below is unaffected.
	rm, rst := bld.Rewrite(obsLits)
	for i := range obsLits {
		obsLits[i] = aig.MapLit(rm, obsLits[i])
	}
	g := bld.Graph()

	// Shared primary input and state variables, in circuit order.
	type diVar struct {
		v     int // SAT variable in the shared encoding
		inPos int // oracle input-word index, or -1
		stPos int // oracle state-word index, or -1
	}
	inPos := make(map[string]int)
	for i, id := range oracle.Inputs() {
		inPos[oracle.Gate(id).Name] = i
	}
	stPos := make(map[string]int)
	for i, id := range oracle.DFFs() {
		stPos[oracle.Gate(id).Name] = i
	}
	var diVars []diVar
	diIdxByName := make(map[string]int)
	addShared := func(name string) {
		v := s.NewVar()
		dv := diVar{v: v, inPos: -1, stPos: -1}
		if p, ok := inPos[name]; ok {
			dv.inPos = p
		}
		if p, ok := stPos[name]; ok {
			dv.stPos = p
		}
		diIdxByName[name] = len(diVars)
		diVars = append(diVars, dv)
	}
	for _, id := range c.Inputs() {
		addShared(c.Gate(id).Name)
	}
	for _, id := range c.DFFs() {
		addShared(c.Gate(id).Name)
	}

	// Two key vectors.
	k1 := make([]int, len(lk.KeyBits))
	k2 := make([]int, len(lk.KeyBits))
	for i := range lk.KeyBits {
		k1[i] = s.NewVar()
		k2[i] = s.NewVar()
	}

	// Leaf roles and the key-dependency mask: a node depends on the key
	// iff its cone reaches a key leaf. Key-independent nodes are
	// identical in both keyed copies and encoded once.
	leafDi := make([]int, g.NumLeaves())
	leafKey := make([]int, g.NumLeaves())
	for i := range leafDi {
		name := bld.LeafName(i)
		leafDi[i] = -1
		leafKey[i] = -1
		if ki, ok := keyIdxByName[name]; ok {
			leafKey[i] = ki
		} else if di, ok := diIdxByName[name]; ok {
			leafDi[i] = di
		} else {
			return nil, fmt.Errorf("attack: leaf %q is neither an input, a state bit, nor a key tie", name)
		}
	}
	keyDep := make([]bool, g.NumNodes())
	shared := make([]bool, g.NumNodes())
	for i := range leafKey {
		if leafKey[i] >= 0 {
			keyDep[g.Leaf(i).Node()] = true
		}
	}
	for n := 1; n < g.NumNodes(); n++ {
		if g.IsAnd(n) {
			f0, f1 := g.Fanins(n)
			keyDep[n] = keyDep[f0.Node()] || keyDep[f1.Node()]
		}
	}
	keyDepNodes := 0
	for n := range keyDep {
		shared[n] = !keyDep[n]
		if keyDep[n] && g.IsAnd(n) {
			keyDepNodes++
		}
	}

	emA := aig.NewEmitter(g, s)
	emB := aig.NewEmitter(g, s)
	emB.ShareFrom(emA, shared)
	for i := range leafDi {
		n := g.Leaf(i).Node()
		if leafKey[i] >= 0 {
			emA.SetVar(n, k1[leafKey[i]])
			emB.SetVar(n, k2[leafKey[i]])
		} else {
			emA.SetVar(n, diVars[leafDi[i]].v)
		}
	}

	// Conditional miter: active → some key-dependent observable
	// differs. Key-independent observables are the same node in both
	// copies and can never distinguish two keys.
	active := s.NewVar()
	var diffs []int
	for _, ol := range obsLits {
		if !keyDep[ol.Node()] {
			continue
		}
		va := emA.LitVar(ol)
		vb := emB.LitVar(ol)
		d := s.NewVar()
		xorClauses(s, d, va, vb)
		diffs = append(diffs, d)
	}
	miter := append(append([]int{}, diffs...), -active)
	s.AddClause(miter...)

	ev, err := sim.NewEvaluator(oracle)
	if err != nil {
		return nil, err
	}
	oin := make([]uint64, len(oracle.Inputs()))
	ost := make([]uint64, len(oracle.DFFs()))
	nets := ev.NewNetBuffer()
	obs := make([]bool, 0, len(oracle.Outputs())+len(oracle.DFFs()))

	cof := newAIGCof(g, leafDi, leafKey, obsLits)

	res := &SATResult{
		BaseClauses:     s.NumProblemClauses(),
		AIGNodes:        g.NumAnds(),
		AIGStrashHits:   g.Stats.StrashHits,
		KeyDepNodes:     keyDepNodes,
		AIGRewriteSaved: rst.Saved(),
	}
	// Every problem clause installed from here on is query growth:
	// the cofactor constraints.
	added := &clauseCounter{Interface: s}
	s = added
	di := make([]bool, len(diVars))
	for res.Iterations < maxIter {
		st := s.Solve(active)
		res.SolveCalls++
		if st == sat.Unknown {
			return nil, ErrSolverStopped
		}
		if st == sat.Unsat {
			res.Converged = true
			break
		}
		// The oracle answers the distinguishing input as pattern 0 of
		// one evaluation.
		for i, dv := range diVars {
			di[i] = s.Value(dv.v)
			var b uint64
			if di[i] {
				b = 1
			}
			if dv.inPos >= 0 {
				oin[dv.inPos] = b
			}
			if dv.stPos >= 0 {
				ost[dv.stPos] = b
			}
		}
		ev.Eval(oin, ost, nets)
		res.OracleEvals++
		obs = obs[:0]
		for _, o := range oracle.Outputs() {
			obs = append(obs, nets[o]&1 == 1)
		}
		for _, ff := range oracle.DFFs() {
			obs = append(obs, nets[oracle.Gate(ff).Fanin[0]]&1 == 1)
		}

		// Constrain both keyed copies to match the oracle on the input,
		// over the key-dependent cone only. The cofactor pass is
		// key-independent and runs once.
		cof.cofactor(di)
		if err := cof.constrain(s, k1, obs); err != nil {
			return nil, err
		}
		if err := cof.constrain(s, k2, obs); err != nil {
			return nil, err
		}
		res.Iterations++
	}
	res.AddedClauses = added.n
	if !res.Converged {
		return res, nil
	}
	// Extract a consistent key.
	switch s.Solve(-active) {
	case sat.Unknown:
		return nil, ErrSolverStopped
	case sat.Unsat:
		return nil, fmt.Errorf("attack: SAT attack converged but no consistent key exists")
	}
	res.SolveCalls++
	res.Key.Bits = make([]bool, len(k1))
	for i, v := range k1 {
		res.Key.Bits[i] = s.Value(v)
	}
	return res, nil
}

// aigCof adds oracle-consistency constraints for one concrete input:
// it cofactors the shared AIG under the input (ternary constant
// propagation with the key leaves as unknowns) and lazily Tseitin-
// encodes only the key-dependent nodes reachable from an observable,
// folding constants into the clauses and emitting detected XOR/MUX
// shapes with their compact definitions. Everything outside the key
// cone costs zero variables and zero clauses.
type aigCof struct {
	g       *aig.Graph
	leafDi  []int // leaf -> distinguishing-input bit index, or -1
	leafKey []int // leaf -> key-bit index, or -1
	obs     []aig.Lit
	val     []int8 // per-node cofactor value (0, 1, or -1 = key-dependent)
	lit     []int  // per-node SAT literal, valid when stamp matches
	stamp   []uint32
	cur     uint32
}

func newAIGCof(g *aig.Graph, leafDi, leafKey []int, obs []aig.Lit) *aigCof {
	return &aigCof{
		g:       g,
		leafDi:  leafDi,
		leafKey: leafKey,
		obs:     obs,
		val:     make([]int8, g.NumNodes()),
		lit:     make([]int, g.NumNodes()),
		stamp:   make([]uint32, g.NumNodes()),
	}
}

// litVal reads the ternary value of a literal (-1 = key-dependent).
func (e *aigCof) litVal(l aig.Lit) int8 {
	v := e.val[l.Node()]
	if v < 0 {
		return -1
	}
	if l.IsCompl() {
		return 1 - v
	}
	return v
}

// cofactor computes the ternary value of every node under input di.
// The pass is key-independent; run it once per input, then call
// constrain once per key copy.
func (e *aigCof) cofactor(di []bool) {
	g := e.g
	e.val[0] = 0
	for n := 1; n < g.NumNodes(); n++ {
		if li := g.LeafIndex(n); li >= 0 {
			if e.leafKey[li] >= 0 {
				e.val[n] = -1
			} else if di[e.leafDi[li]] {
				e.val[n] = 1
			} else {
				e.val[n] = 0
			}
			continue
		}
		f0, f1 := g.Fanins(n)
		v0, v1 := e.litVal(f0), e.litVal(f1)
		switch {
		case v0 == 0 || v1 == 0:
			e.val[n] = 0
		case v0 == 1 && v1 == 1:
			e.val[n] = 1
		default:
			e.val[n] = -1
		}
	}
}

// emitLit returns the signed SAT literal of l, emitting its cofactor
// cone first if needed. l's node must be key-dependent (val == -1).
func (e *aigCof) emitLit(s sat.Interface, kv []int, l aig.Lit) int {
	v := e.emit(s, kv, l.Node())
	if l.IsCompl() {
		return -v
	}
	return v
}

func (e *aigCof) emit(s sat.Interface, kv []int, n int) int {
	if e.stamp[n] == e.cur {
		return e.lit[n]
	}
	g := e.g
	var l int
	if li := g.LeafIndex(n); li >= 0 {
		l = kv[e.leafKey[li]]
	} else if sel, t1, t0, ok := g.DetectITE(n); ok &&
		e.litVal(sel) < 0 && e.litVal(t1) < 0 && e.litVal(t0) < 0 {
		// MUX/XOR shape with a symbolic select and symbolic branches:
		// 4 clauses instead of three AND nodes' 9.
		ls := e.emitLit(s, kv, sel)
		l1 := e.emitLit(s, kv, t1)
		l0 := e.emitLit(s, kv, t0)
		v := s.NewVar()
		aig.EmitITE(s, v, ls, l1, l0)
		l = v
	} else {
		// Generic AND with constant fanins folded away. A constant
		// fanin is necessarily 1 (a 0 would have made the node 0).
		f0, f1 := g.Fanins(n)
		v0, v1 := e.litVal(f0), e.litVal(f1)
		switch {
		case v0 >= 0:
			l = e.emitLit(s, kv, f1)
		case v1 >= 0:
			l = e.emitLit(s, kv, f0)
		default:
			a := e.emitLit(s, kv, f0)
			b := e.emitLit(s, kv, f1)
			v := s.NewVar()
			aig.EmitAnd(s, v, a, b)
			l = v
		}
	}
	e.lit[n] = l
	e.stamp[n] = e.cur
	return l
}

// constrain encodes the key-dependent cones of the current cofactor
// (see cofactor) for one key copy and forces the observables to the
// oracle outputs obs (outputs then next-state bits, matching the
// obs literal order).
func (e *aigCof) constrain(s sat.Interface, kv []int, obs []bool) error {
	e.cur++
	for i, ol := range e.obs {
		if v := e.litVal(ol); v >= 0 {
			if (v == 1) != obs[i] {
				return fmt.Errorf("attack: oracle disagrees with key-independent output %d — oracle is not the original circuit", i)
			}
			continue
		}
		l := e.emitLit(s, kv, ol)
		if obs[i] {
			s.AddClause(l)
		} else {
			s.AddClause(-l)
		}
	}
	return nil
}

// xorClauses adds the 4-clause Tseitin definition t ↔ a ⊕ b to s.
// Literals may be negative.
func xorClauses(s sat.Interface, t, a, b int) {
	s.AddClause(-t, a, b)
	s.AddClause(-t, -a, -b)
	s.AddClause(t, -a, b)
	s.AddClause(t, a, -b)
}

// clauseCounter is a solver that counts the problem clauses each
// AddClause call installs. Units and clauses already satisfied at
// level 0 install none; a clause that revives eliminated variables
// also counts the clauses restored with them. Later inprocessing
// deletions are not subtracted.
type clauseCounter struct {
	sat.Interface
	n int
}

func (c *clauseCounter) AddClause(lits ...int) {
	before := c.NumProblemClauses()
	c.Interface.AddClause(lits...)
	c.n += c.NumProblemClauses() - before
}
