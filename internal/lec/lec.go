// Package lec implements combinational logic equivalence checking, the
// reproduction's substitute for Cadence Conformal LEC in the Fig. 3
// flow (the locked netlist must be formally equivalent to the original
// under the correct key; non-equivalent locking attempts are rejected).
//
// The checker rewrites both circuits into one shared strashed
// AND-inverter graph (internal/aig), sweeps the unresolved cones with
// complement-canonical simulation signatures and bounded SAT probes,
// and decides the surviving observable pairs over a Tseitin-on-AIG
// miter with the internal CDCL solver. A bit-parallel
// random-simulation prefilter catches most non-equivalences cheaply.
// Sequential designs are checked combinationally with flip-flops
// matched by name (register correspondence), the standard approach.
// Options.LegacyEncoder selects the pre-AIG direct-encoding path.
package lec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sim"
)

// ErrCancelled is returned when a check was cut short by Options.Stop
// before reaching a verdict.
var ErrCancelled = errors.New("lec: check cancelled")

// Result reports the outcome of an equivalence check.
type Result struct {
	// Equivalent is true when the circuits implement the same function
	// for every input (and state) assignment.
	Equivalent bool
	// Counterexample, for non-equivalent circuits, assigns input (and
	// flip-flop) names to values that distinguish the circuits. It is
	// nil when the prefilter found the mismatch.
	Counterexample map[string]bool
	// UsedSAT is true when the prefilter did not decide and the proof
	// came from the structural/SAT engine (on the AIG path a fully
	// strashed miter may still need zero solver calls).
	UsedSAT bool
	// Stats reports the structural work behind the verdict.
	Stats Stats
}

// Stats describes the structural-hashing layer's contribution to one
// check. On the legacy-encoder path only ProblemClauses is filled.
type Stats struct {
	// AIGNodes is the AND-node count of the shared strashed graph.
	AIGNodes int
	// StrashHits counts hash-cons table hits during graph construction
	// (cones of the second circuit collapsing onto the first).
	StrashHits int
	// SweepMerges counts node equivalences proven by the sweeper,
	// including complement merges.
	SweepMerges int
	// SATPairs counts observable pairs that needed a SAT call (pairs
	// proven by structural identity need none).
	SATPairs int
	// RewriteSaved is the AND-node reduction of the cut-rewriting pass
	// (AIGNodes already reflects the rewritten graph).
	RewriteSaved int
	// Rewrites counts nodes the rewriting pass replaced by a smaller
	// NPN-class structure.
	Rewrites int
	// ProblemClauses is the final problem-clause count of the miter
	// instance (0 when the whole proof was structural).
	ProblemClauses int
}

// Options tunes the checker.
type Options struct {
	// PrefilterPatterns is the number of random patterns simulated
	// before invoking SAT. 0 uses a default of 8192; negative disables
	// the prefilter.
	PrefilterPatterns int
	// SimWidth is the prefilter's simulation width in 64-pattern words
	// per net (1, 4 or 8; 0 auto-selects). The verdict is identical at
	// every width.
	SimWidth int
	// Seed drives the prefilter stimulus.
	Seed uint64
	// NoRewrite disables the AIG cut-rewriting pass that runs between
	// graph construction and sweeping/CNF emission on the AIG path. The
	// pass is on by default: it shrinks the miter cones (and therefore
	// the CNF) before any solving happens, at a small deterministic
	// reconstruction cost.
	NoRewrite bool
	// LegacyEncoder selects the pre-AIG path: direct Tseitin encoding
	// of the netlists with variable-signature sharing and the
	// simulation-guided sweep of the encoder merge hook. The default
	// (false) routes the check through the strashed AND-inverter
	// graph, whose complement-canonical sweeping also merges
	// XNOR-complement equivalences.
	LegacyEncoder bool
	// PortfolioWorkers > 1 backs the check with a sat.Portfolio of
	// that many diverging solver instances, time-sliced in its
	// staircase schedule: verdicts, counterexamples and stats are
	// bit-identical on every host, and identical across member counts
	// for miters decided in the schedule's first rounds (the common
	// case). This pays on the hard miters that survive the zero-clause
	// structural path — re-synthesized or wrong-key circuits — and is
	// wasted mirroring work on miters that collapse structurally. 0 or
	// 1 uses the single solver.
	PortfolioWorkers int
	// Deprecated: ignored; every portfolio is deterministic.
	PortfolioDeterministic bool
	// Stop, when non-nil and set, cancels the check — prefilter
	// simulation, sweeping, and miter solving all observe it — and
	// Check returns ErrCancelled. A check that completes before the
	// flag is observed returns its verdict unchanged, so
	// deterministic-mode results stay bit-identical when a deadline
	// never fires.
	Stop *atomic.Bool
	// Solver, when non-nil, is the SAT backend for this check and
	// overrides the PortfolioWorkers construction. It must be fresh (no variables or clauses): the
	// check owns it for its duration. This is the pool seam — a daemon
	// acquires a slot lease and injects a portfolio sized to the
	// admission grant instead of letting every concurrent check build a
	// full-width one.
	Solver sat.Interface
}

// newMiterSolver returns the SAT backend for one check: the single
// deterministic solver, or a portfolio seeded from the checker seed.
func newMiterSolver(opt Options) sat.Interface {
	if opt.Solver != nil {
		return opt.Solver
	}
	if opt.PortfolioWorkers > 1 {
		return sat.NewPortfolio(sat.PortfolioOptions{
			Workers: opt.PortfolioWorkers,
			Seed:    opt.Seed,
			Stop:    opt.Stop,
		})
	}
	return sat.NewWithOptions(sat.Options{ExternalStop: opt.Stop})
}

// unknownErr maps a solver Unknown to the right error: ErrCancelled
// when the caller's stop flag is up (a deadline or signal fired),
// otherwise an internal error — an unbudgeted solve must decide.
func unknownErr(opt Options) error {
	if opt.Stop != nil && opt.Stop.Load() {
		return ErrCancelled
	}
	return fmt.Errorf("lec: solver returned unknown")
}

// Check decides whether circuits a and b are functionally equivalent.
// Inputs and flip-flops are matched by name; output pairs by position.
func Check(a, b *netlist.Circuit, opt Options) (Result, error) {
	if len(a.Outputs()) != len(b.Outputs()) {
		return Result{}, fmt.Errorf("lec: output count mismatch %d vs %d", len(a.Outputs()), len(b.Outputs()))
	}
	patterns := opt.PrefilterPatterns
	if patterns == 0 {
		patterns = 8192
	}
	if patterns > 0 {
		eq, err := sim.EquivalentOpt(a, b, sim.CompareOptions{
			Patterns: patterns, Seed: opt.Seed, Width: opt.SimWidth, Stop: opt.Stop,
		})
		if err != nil {
			if opt.Stop != nil && opt.Stop.Load() {
				return Result{}, ErrCancelled
			}
			return Result{}, err
		}
		if !eq {
			return Result{Equivalent: false}, nil
		}
	}
	if !opt.LegacyEncoder {
		return checkAIG(a, b, opt)
	}

	s := newMiterSolver(opt)
	sigTable := make(map[uint64]int)
	enc := NewEncoder(s)
	enc.ShareStructure(sigTable)
	varsA, err := enc.Encode(a)
	if err != nil {
		return Result{}, err
	}
	// Share input and flip-flop variables by name; structurally
	// identical internal cones additionally share through sigTable.
	shared := make(map[string]int)
	for _, id := range a.Inputs() {
		shared[a.Gate(id).Name] = varsA[id]
	}
	for _, id := range a.DFFs() {
		shared[a.Gate(id).Name] = varsA[id]
	}
	// The second circuit is encoded with simulation-guided SAT sweeping:
	// candidate equivalences against a's nets (matched by bit-parallel
	// simulation signature) are probed with bounded-effort SAT as each
	// gate is encoded, and proven nets are substituted by a's variable,
	// so re-synthesized cones re-converge structurally and everything
	// downstream shares a's encoding outright. This is the standard
	// fraiging play of production equivalence checkers; the output-pair
	// proofs below mostly collapse to va == vb lookups.
	enc2 := NewEncoder(s)
	enc2.Bind(shared)
	enc2.ShareStructure(sigTable)
	if err := installSweep(s, enc2, a, b, varsA, opt.Seed); err != nil {
		return Result{}, err
	}
	varsB, err := enc2.Encode(b)
	if err != nil {
		return Result{}, err
	}

	// Collect observable pairs: outputs by position, next-state
	// functions by flip-flop name.
	type pair struct{ va, vb int }
	var pairs []pair
	for i, oa := range a.Outputs() {
		ob := b.Outputs()[i]
		pairs = append(pairs, pair{varsA[a.Gate(oa).Fanin[0]], varsB[b.Gate(ob).Fanin[0]]})
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
		pairs = append(pairs, pair{varsA[a.Gate(fa).Fanin[0]], varsB[b.Gate(fb).Fanin[0]]})
	}

	// Check observables one at a time (incremental, activation-literal
	// style): refuting a single-output difference is far easier than a
	// monolithic miter, learnt clauses carry over between pairs, and
	// structurally shared outputs need no SAT at all.
	for _, p := range pairs {
		if p.va == p.vb {
			continue // identical structure ⇒ identical function
		}
		act := s.NewVar()
		// act → va ⊕ vb
		s.AddClause(-act, p.va, p.vb)
		s.AddClause(-act, -p.va, -p.vb)
		switch s.Solve(act) {
		case sat.Sat:
			cex := make(map[string]bool)
			for _, id := range a.Inputs() {
				cex[a.Gate(id).Name] = s.Value(varsA[id])
			}
			for _, id := range a.DFFs() {
				cex[a.Gate(id).Name] = s.Value(varsA[id])
			}
			return Result{Equivalent: false, Counterexample: cex, UsedSAT: true,
				Stats: Stats{ProblemClauses: s.NumProblemClauses()}}, nil
		case sat.Unsat:
			// This observable is equivalent; permanently disable its
			// activation literal and move on.
			s.AddClause(-act)
		default:
			return Result{}, unknownErr(opt)
		}
	}
	return Result{Equivalent: true, UsedSAT: true,
		Stats: Stats{ProblemClauses: s.NumProblemClauses()}}, nil
}

// sweepWords is the number of 64-pattern words used to bucket internal
// nets by simulation signature during SAT sweeping.
const sweepWords = 4

// sweepBudget caps the conflicts spent on a single sweep probe.
// Signature collisions (e.g. near-constant nets) would otherwise turn
// failed probes into unbounded model searches; a merge that cannot be
// proven within the budget is simply skipped.
const sweepBudget = 400

// simSignatures bit-parallel-simulates circuit c under the shared
// per-name stimulus and returns every net's signature, densely indexed
// by GateID.
func simSignatures(c *netlist.Circuit, wordFor func(string, int) uint64) ([][sweepWords]uint64, error) {
	ev, err := sim.NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	in := make([]uint64, len(c.Inputs()))
	st := make([]uint64, len(c.DFFs()))
	nets := ev.NewNetBuffer()
	sigs := make([][sweepWords]uint64, c.NumIDs())
	for k := 0; k < sweepWords; k++ {
		for i, id := range c.Inputs() {
			in[i] = wordFor(c.Gate(id).Name, k)
		}
		for i, id := range c.DFFs() {
			st[i] = wordFor(c.Gate(id).Name, k)
		}
		ev.Eval(in, st, nets)
		for id := range sigs {
			sigs[id][k] = nets[id]
		}
	}
	return sigs, nil
}

// installSweep prepares simulation-guided sweeping for enc's next
// Encode call: a's nets are bucketed by simulation signature, and the
// encoder's merge hook probes each freshly encoded net of b against a
// signature-matched candidate of a with a bounded-effort SAT call.
// Proven nets are substituted by a's variable, so their fanout
// re-converges onto a's encoding structurally (no further probes, no
// clauses). Failed or over-budget probes are simply skipped — sweeping
// only accelerates, it never decides.
func installSweep(s sat.Interface, enc *Encoder, a, b *netlist.Circuit, varsA VarMap, seed uint64) error {
	// Deterministic per-name stimulus so that identically-named inputs
	// and flip-flops of both circuits see identical patterns.
	nameIdx := make(map[string]int)
	wordFor := func(name string, k int) uint64 {
		idx, ok := nameIdx[name]
		if !ok {
			idx = len(nameIdx)
			nameIdx[name] = idx
		}
		x := seed ^ 0x9e3779b97f4a7c15
		x ^= uint64(idx+1) * 0xbf58476d1ce4e5b9
		x ^= uint64(k+1) * 0x94d049bb133111eb
		x ^= x >> 27
		x *= 0x2545f4914f6cdd1d
		x ^= x >> 31
		return x
	}
	sigsA, err := simSignatures(a, wordFor)
	if err != nil {
		return err
	}
	sigsB, err := simSignatures(b, wordFor)
	if err != nil {
		return err
	}
	// Bucket a's vars by signature; the lowest variable (the earliest
	// encoded net) is the deterministic representative.
	orderA, err := a.TopoOrder()
	if err != nil {
		return err
	}
	bySig := make(map[[sweepWords]uint64]int, len(orderA))
	for _, id := range orderA {
		v := varsA[id]
		if v == 0 {
			continue
		}
		if old, ok := bySig[sigsA[id]]; !ok || old > v {
			bySig[sigsA[id]] = v
		}
	}
	// The hook only ever sees freshly allocated variables (gates that
	// alias an existing variable through Bind or the signature table
	// never reach it), so no self-merge guard is needed.
	enc.merge = func(id netlist.GateID, v int) int {
		va, ok := bySig[sigsB[id]]
		if !ok || va == v {
			return v
		}
		act := s.NewVar()
		// act → va ⊕ v; UNSAT under act proves equivalence.
		s.AddClause(-act, va, v)
		s.AddClause(-act, -va, -v)
		st := s.SolveLimited(sweepBudget, act)
		s.AddClause(-act) // retire the probe either way
		if st != sat.Unsat {
			return v
		}
		// Proven equal: record the lemma and substitute a's variable
		// for all fanout of this net.
		s.AddClause(-va, v)
		s.AddClause(va, -v)
		return va
	}
	return nil
}

// Encoder Tseitin-encodes circuits into a shared SAT instance. It is
// also used by the oracle-guided SAT attack demonstration.
type Encoder struct {
	s     sat.Interface
	bound map[string]int // gate name -> pre-assigned variable
	// sigs, when non-nil, maps gate signatures — the gate type hashed
	// over its fanin SAT variables — to existing SAT variables: a gate
	// whose inputs already share variables with an earlier encoding
	// shares its output variable too instead of re-encoding. This is
	// the internal-equivalence sharing that keeps locked-vs-original
	// miters small (only the re-synthesized cones differ), and because
	// signatures follow the variables, two circuits bound to different
	// variables (e.g. the two key vectors of a SAT-attack miter) never
	// alias.
	sigs map[uint64]int
	// merge, when non-nil, is called after each freshly encoded gate
	// with its variable and may return a substitute (an older variable
	// proven equivalent); the substitution propagates to all fanout.
	// installSweep uses it for simulation-guided SAT sweeping.
	merge func(id netlist.GateID, v int) int
}

// NewEncoder returns an encoder adding clauses to s (a single solver
// or a portfolio).
func NewEncoder(s sat.Interface) *Encoder {
	return &Encoder{s: s}
}

// Bind forces the named gates of the next Encode call to use the given
// existing solver variables (for sharing inputs across circuits). The
// binding is purely name-keyed; it applies to whichever circuit is
// passed to Encode next.
func (e *Encoder) Bind(vars map[string]int) {
	e.bound = vars
}

// ShareStructure enables structural sharing against the given
// signature table (pass the same table to both encoders of a miter).
// Sharing relies on 64-bit FNV signatures; a collision could mask a
// real difference with probability ~2^-64 per gate pair.
func (e *Encoder) ShareStructure(table map[uint64]int) {
	e.sigs = table
}

// VarMap maps GateIDs to SAT variables as a dense slice indexed by
// GateID (the gate ID space is compact); entry 0 means the net was not
// encoded (dead slot).
type VarMap []int

// Var returns the SAT variable of the given net, or 0 if unencoded.
func (m VarMap) Var(id netlist.GateID) int { return m[id] }

// Encode adds the circuit's consistency clauses and returns the
// variable of every live net, densely indexed by GateID.
func (e *Encoder) Encode(c *netlist.Circuit) (VarMap, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := e.s
	vars := make(VarMap, c.NumIDs())
	varOf := func(id netlist.GateID) int { return vars[id] }
	for _, id := range order {
		g := c.Gate(id)
		if v, ok := e.bound[g.Name]; ok {
			vars[id] = v
			continue
		}
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			vars[id] = s.NewVar() // free variable, no clauses
			continue
		}
		// Signatures hash the gate type over the fanin variables (after
		// any merge substitutions), so sharing follows the variables and
		// cascades through merged cones.
		var sig uint64
		if e.sigs != nil {
			sig = gateSig(g.Type, g.Fanin, vars)
			if v, ok := e.sigs[sig]; ok {
				vars[id] = v
				continue
			}
		}
		v := s.NewVar()
		vars[id] = v
		switch g.Type {
		case netlist.TieHi:
			s.AddClause(v)
		case netlist.TieLo:
			s.AddClause(-v)
		case netlist.Buf, netlist.Output:
			a := varOf(g.Fanin[0])
			s.AddClause(-v, a)
			s.AddClause(v, -a)
		case netlist.Not:
			a := varOf(g.Fanin[0])
			s.AddClause(-v, -a)
			s.AddClause(v, a)
		case netlist.And:
			e.encodeAnd(v, g.Fanin, varOf, false)
		case netlist.Nand:
			e.encodeAnd(v, g.Fanin, varOf, true)
		case netlist.Or:
			e.encodeOr(v, g.Fanin, varOf, false)
		case netlist.Nor:
			e.encodeOr(v, g.Fanin, varOf, true)
		case netlist.Xor:
			e.encodeXorChain(v, g.Fanin, varOf, false)
		case netlist.Xnor:
			e.encodeXorChain(v, g.Fanin, varOf, true)
		case netlist.Mux:
			sel, a, b := varOf(g.Fanin[0]), varOf(g.Fanin[1]), varOf(g.Fanin[2])
			s.AddClause(sel, -a, v)
			s.AddClause(sel, a, -v)
			s.AddClause(-sel, -b, v)
			s.AddClause(-sel, b, -v)
			// Redundant but propagation-helpful:
			s.AddClause(-a, -b, v)
			s.AddClause(a, b, -v)
		default:
			return nil, fmt.Errorf("lec: cannot encode gate type %v", g.Type)
		}
		if e.merge != nil {
			vars[id] = e.merge(id, v)
		}
		if e.sigs != nil {
			e.sigs[sig] = vars[id]
		}
	}
	return vars, nil
}

// gateSig hashes a gate type over its fanin variables.
func gateSig(t netlist.GateType, fanin []netlist.GateID, vars VarMap) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(t) + 1)
	for _, f := range fanin {
		mix(uint64(vars[f]))
	}
	return h
}

func (e *Encoder) encodeAnd(v int, fanin []netlist.GateID, varOf func(netlist.GateID) int, negate bool) {
	s := e.s
	out := v
	if negate {
		// out = ¬t where t = AND(...): encode on inverted literal.
		out = -v
	}
	long := make([]int, 0, len(fanin)+1)
	for _, f := range fanin {
		a := varOf(f)
		s.AddClause(-out, a) // out → a
		long = append(long, -a)
	}
	long = append(long, out) // all a → out
	s.AddClause(long...)
}

func (e *Encoder) encodeOr(v int, fanin []netlist.GateID, varOf func(netlist.GateID) int, negate bool) {
	s := e.s
	out := v
	if negate {
		out = -v
	}
	long := make([]int, 0, len(fanin)+1)
	for _, f := range fanin {
		a := varOf(f)
		s.AddClause(out, -a) // a → out
		long = append(long, a)
	}
	long = append(long, -out) // out → some a
	s.AddClause(long...)
}

func (e *Encoder) encodeXorChain(v int, fanin []netlist.GateID, varOf func(netlist.GateID) int, negate bool) {
	s := e.s
	acc := varOf(fanin[0])
	for i := 1; i < len(fanin); i++ {
		b := varOf(fanin[i])
		var t int
		if i == len(fanin)-1 {
			t = v
			if negate {
				// Encode v ↔ ¬(acc ⊕ b) by flipping the output sign.
				XorClauses(e.s, -t, acc, b)
				return
			}
		} else {
			t = s.NewVar()
		}
		XorClauses(e.s, t, acc, b)
		acc = t
	}
	if len(fanin) == 1 { // degenerate, not produced by netlist arity rules
		s.AddClause(-v, varOf(fanin[0]))
		s.AddClause(v, -varOf(fanin[0]))
	}
}

// XorClauses adds the 4-clause Tseitin definition t ↔ a ⊕ b to s.
// Literals may be negative. The encoder, the miter construction, and
// the SAT attack's cofactor encoder all share this one definition.
func XorClauses(s sat.Interface, t, a, b int) {
	s.AddClause(-t, a, b)
	s.AddClause(-t, -a, -b)
	s.AddClause(t, -a, b)
	s.AddClause(t, a, -b)
}
