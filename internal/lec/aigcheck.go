package lec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/aig"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// sweepWords is the number of 64-pattern words used to bucket internal
// nodes by simulation signature during SAT sweeping.
const sweepWords = 4

// sweepBudget caps the conflicts spent on a single sweep probe.
// Signature collisions (e.g. near-constant nodes) would otherwise turn
// failed probes into unbounded model searches; a merge that cannot be
// proven within the budget is simply skipped.
const sweepBudget = 400

// checkAIG decides equivalence through the AND-inverter-graph layer:
// both circuits are rewritten into one shared strashed graph (leaves
// shared by name), so identical cones are already the same literal
// when the check starts; the remaining candidate equivalences are
// bucketed by complement-canonical simulation signatures — so XNOR-
// complement equivalences land in the same bucket — and proven with
// bounded-effort SAT probes whose merges substitute nodes before any
// further CNF is emitted. Only cones that survive sweeping reach the
// Tseitin-on-AIG miter.
func checkAIG(a, b *netlist.Circuit, opt Options) (Result, error) {
	bld := aig.NewBuilder()
	ma, err := bld.Add(a)
	if err != nil {
		return Result{}, err
	}
	mb, err := bld.Add(b)
	if err != nil {
		return Result{}, err
	}

	// Observable pairs: outputs by position, next-state by DFF name.
	type pair struct{ la, lb aig.Lit }
	var pairs []pair
	for i, oa := range a.Outputs() {
		pairs = append(pairs, pair{ma[oa], mb[b.Outputs()[i]]})
	}
	ffB := make(map[string]netlist.GateID)
	for _, id := range b.DFFs() {
		ffB[b.Gate(id).Name] = id
	}
	for _, fa := range a.DFFs() {
		name := a.Gate(fa).Name
		fb, ok := ffB[name]
		if !ok {
			return Result{}, fmt.Errorf("lec: flip-flop %q missing in %s", name, b.Name)
		}
		pairs = append(pairs, pair{ma[a.Gate(fa).Fanin[0]], mb[b.Gate(fb).Fanin[0]]})
	}

	res := Result{Equivalent: true, UsedSAT: true}

	// Cut rewriting: shrink the observable cones before sweeping and
	// CNF emission. Pairs and the leaf registry are remapped through
	// the rewrite's node map; structural pair collapses (la == lb) can
	// only increase, never revert, because the rewrite preserves every
	// root function.
	rwRoots := make([]aig.Lit, 0, 2*len(pairs))
	for _, p := range pairs {
		rwRoots = append(rwRoots, p.la, p.lb)
	}
	rm, rst := bld.Rewrite(rwRoots)
	g := bld.Graph()
	for i := range pairs {
		pairs[i].la = aig.MapLit(rm, pairs[i].la)
		pairs[i].lb = aig.MapLit(rm, pairs[i].lb)
	}
	res.Stats.RewriteSaved = rst.Saved()
	res.Stats.Rewrites = rst.Rewrites

	s := newMiterSolver(opt)
	sw := newSweeper(g, s, bld, opt.Seed)
	sw.stop = opt.Stop
	// Sweep only the cones of pairs that strashing did not already
	// resolve: a fully collapsed miter (the common locked-vs-original
	// case) costs zero probes and zero clauses.
	var roots []aig.Lit
	for _, p := range pairs {
		if p.la != p.lb {
			roots = append(roots, p.la, p.lb)
		}
	}
	if len(roots) > 0 {
		sw.sweep(roots)
	}

	res.Stats.AIGNodes = g.NumAnds()
	res.Stats.StrashHits = g.Stats.StrashHits

	for _, p := range pairs {
		la, lb := sw.find(p.la), sw.find(p.lb)
		if la == lb {
			continue // same literal ⇒ same function, no SAT needed
		}
		res.Stats.SATPairs++
		va := sw.em.LitVar(la)
		vb := sw.em.LitVar(lb)
		act := s.NewVar()
		// act → va ⊕ vb
		s.AddClause(-act, va, vb)
		s.AddClause(-act, -va, -vb)
		switch s.Solve(act) {
		case sat.Sat:
			res.Equivalent = false
			res.Counterexample = sw.counterexample(a)
			res.Stats.SweepMerges = sw.merges
			res.Stats.ProblemClauses = s.NumProblemClauses()
			return res, nil
		case sat.Unsat:
			s.AddClause(-act)
		default:
			return Result{}, unknownErr(opt)
		}
	}
	res.Stats.SweepMerges = sw.merges
	res.Stats.ProblemClauses = s.NumProblemClauses()
	return res, nil
}

// sweeper runs simulation-guided SAT sweeping on the AIG: nodes are
// bucketed by complement-canonical signature and probed against the
// earliest bucket member; proven merges are recorded in a union-find
// whose representatives substitute into all later CNF emission.
type sweeper struct {
	g   *aig.Graph
	s   sat.Interface
	em  *aig.Emitter
	bld *aig.Builder
	// repr[n] is the literal node n currently equals (repr[n].Node()==n
	// when n is its own representative).
	repr   []aig.Lit
	seed   uint64
	merges int
	// stop, when non-nil and set, abandons sweeping early; sweeping
	// only accelerates the check, so skipping it is always sound.
	stop *atomic.Bool
}

func newSweeper(g *aig.Graph, s sat.Interface, bld *aig.Builder, seed uint64) *sweeper {
	sw := &sweeper{
		g:    g,
		s:    s,
		em:   aig.NewEmitter(g, s),
		bld:  bld,
		repr: make([]aig.Lit, g.NumNodes()),
		seed: seed,
	}
	for n := range sw.repr {
		sw.repr[n] = aig.MakeLit(n, false)
	}
	sw.em.Sub = sw.find
	return sw
}

func (sw *sweeper) find(l aig.Lit) aig.Lit {
	n := l.Node()
	r := sw.repr[n]
	if r.Node() == n {
		return l.NotIf(r.IsCompl()) // self-representative (never complemented)
	}
	root := sw.find(r)
	sw.repr[n] = root // path compression
	return root.NotIf(l.IsCompl())
}

// sweep buckets the cone of the given roots by complement-canonical
// signature and probes candidate merges in topological order. A raised
// stop flag abandons the pass before its next node (partial merges
// already proven stand).
func (sw *sweeper) sweep(roots []aig.Lit) {
	need := sw.g.Cone(roots...)
	sigs := sw.signatures()
	type key [sweepWords]uint64
	canon := func(n int) (key, bool) {
		var k key
		pol := sigs[n*sweepWords]&1 == 1
		for w := 0; w < sweepWords; w++ {
			v := sigs[n*sweepWords+w]
			if pol {
				v = ^v
			}
			k[w] = v
		}
		return k, pol
	}
	buckets := make(map[key]aig.Lit)
	for n := 0; n < sw.g.NumNodes(); n++ {
		if sw.stop != nil && sw.stop.Load() {
			return
		}
		if !need[n] {
			continue
		}
		k, pol := canon(n)
		rep, ok := buckets[k]
		if !ok {
			// First member: the bucket stores the canonical literal
			// (complemented so that its canonical signature is the key).
			buckets[k] = aig.MakeLit(n, pol)
			continue
		}
		if !sw.g.IsAnd(n) {
			continue // leaves are free variables; nothing to prove
		}
		cand := rep.NotIf(pol) // hypothesis: lit(n) == cand
		if sw.find(aig.MakeLit(n, false)) == sw.find(cand) {
			continue // already merged transitively
		}
		sw.probe(n, cand)
	}
}

// probe SAT-checks node n == cand with a bounded conflict budget and
// merges on success.
func (sw *sweeper) probe(n int, cand aig.Lit) {
	vN := sw.em.LitVar(aig.MakeLit(n, false))
	vC := sw.em.LitVar(cand)
	act := sw.s.NewVar()
	// act → vN ⊕ vC; UNSAT under act proves equivalence.
	sw.s.AddClause(-act, vN, vC)
	sw.s.AddClause(-act, -vN, -vC)
	st := sw.s.SolveLimited(sweepBudget, act)
	sw.s.AddClause(-act) // retire the probe either way
	if st != sat.Unsat {
		return
	}
	// Lemma keeps already-emitted CNF consistent with the substitution.
	sw.s.AddClause(-vN, vC)
	sw.s.AddClause(vN, -vC)
	sw.repr[n] = sw.find(cand)
	sw.merges++
}

// signatures simulates sweepWords stimulus words over the graph with a
// deterministic per-leaf stream (leaves are shared by name through the
// builder, so both circuits see identical patterns by construction).
func (sw *sweeper) signatures() []uint64 {
	seed := sw.seed
	return sw.g.Signatures(sweepWords, func(leaf, k int) uint64 {
		x := seed ^ 0x9e3779b97f4a7c15
		x ^= uint64(leaf+1) * 0xbf58476d1ce4e5b9
		x ^= uint64(k+1) * 0x94d049bb133111eb
		x ^= x >> 27
		x *= 0x2545f4914f6cdd1d
		x ^= x >> 31
		return x
	})
}

// counterexample extracts input and flip-flop values for circuit a
// from the solver model. Leaves outside the refuted cone are
// unconstrained and read as false.
func (sw *sweeper) counterexample(a *netlist.Circuit) map[string]bool {
	cex := make(map[string]bool)
	for _, id := range append(append([]netlist.GateID(nil), a.Inputs()...), a.DFFs()...) {
		name := a.Gate(id).Name
		val := false
		if leafLit, ok := sw.bld.LeafByName(name); ok {
			l := sw.find(leafLit)
			if v := sw.em.VarOf(l.Node()); v != 0 {
				val = sw.s.Value(v) != l.IsCompl()
			}
		}
		cex[name] = val
	}
	return cex
}
