package sim

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/netlist"
)

// MaxPatterns is the largest pattern count Compare, EquivalentOpt and
// the activity estimators accept: 2^30, a thousand times the paper's
// 1M. A larger count is an error, not a long run: the count is rounded
// up to whole 64-pattern words, which near math.MaxInt overflows to a
// run that simulates nothing.
const MaxPatterns = 1 << 30

// DiffStats reports the output difference between two circuits over a
// random pattern run, as used by Table II of the paper.
type DiffStats struct {
	// Patterns is the number of input patterns simulated.
	Patterns int
	// HD is the average Hamming distance between the observable
	// outputs, as a fraction in [0,1] (the paper reports percent).
	HD float64
	// OER is the fraction of patterns for which at least one
	// observable output differs.
	OER float64
	// PlanOps is the number of ops in the two compiled plans: the
	// gates of each circuit's observed cone, sources included. It is a
	// deterministic work counter; one pass of w×64 patterns evaluates
	// this many ops.
	PlanOps int
}

// CompareOptions tunes Compare.
type CompareOptions struct {
	// Patterns is the number of random patterns (rounded up to a
	// multiple of 64), at most MaxPatterns. Defaults to 65536.
	Patterns int
	// Seed selects the stimulus stream.
	Seed uint64
	// ObserveState, when true, includes flip-flop next-state values as
	// observables in addition to the primary outputs. Sequential
	// designs are compared combinationally with randomized state, the
	// standard practice for locking evaluations.
	ObserveState bool
	// Workers caps the simulation worker pool (0 = GOMAXPROCS, 1 =
	// serial). Results are bit-identical for every setting: pattern
	// words are sharded in fixed batches and each batch's stimulus is
	// an O(1) jump into the same seed stream.
	Workers int
	// Width is the simulation width in 64-pattern words per net (1, 4
	// or 8; 0 auto-selects from the pattern count). Results are
	// bit-identical at every width: lane k of a wide word replays
	// exactly the serial stream's word base+k.
	Width int
	// Stop, when non-nil and set, cancels the comparison; Compare then
	// returns engine.ErrStopped. A run that completes before the flag is
	// observed is unaffected, so results stay bit-identical under
	// deadlines that don't fire.
	Stop *atomic.Bool
}

// Compare simulates circuits a and b under identical random stimulus
// and reports HD and OER. Inputs and flip-flops are matched by name;
// circuits whose boundaries differ are rejected.
//
// Each circuit is compiled over only what Compare observes: the
// transitive fanin of its primary outputs, plus of its flip-flop D pins
// when ObserveState is set. Gates outside those cones cannot change a
// counted bit, so they are never simulated.
func Compare(a, b *netlist.Circuit, opt CompareOptions) (DiffStats, error) {
	pa, err := prepareSide(a, opt.ObserveState)
	if err != nil {
		return DiffStats{}, err
	}
	pb, err := prepareSide(b, opt.ObserveState)
	if err != nil {
		return DiffStats{}, err
	}
	return compareSides(pa, pb, opt)
}

// side is one circuit as Compare needs it: its observed plan, plus the
// names of its inputs and flip-flops, by which the other circuit's are
// matched. It holds no reference to the circuit, so it stays valid
// when the circuit is edited afterwards.
type side struct {
	*observedPlan
	name        string
	inputs, ffs []string
}

// prepareSide compiles c's observed plan and records its boundary
// names.
func prepareSide(c *netlist.Circuit, observeState bool) (*side, error) {
	dffs := c.DFFs()
	p, err := compileObserved(c, dffs, observeState)
	if err != nil {
		return nil, fmt.Errorf("sim: compiling %s: %w", c.Name, err)
	}
	names := func(ids []netlist.GateID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = c.Gate(id).Name
		}
		return out
	}
	return &side{observedPlan: p, name: c.Name, inputs: names(c.Inputs()), ffs: names(dffs)}, nil
}

// compareSides is Compare on two prepared circuits.
func compareSides(pa, pb *side, opt CompareOptions) (DiffStats, error) {
	if opt.Patterns <= 0 {
		opt.Patterns = 65536
	}
	if err := checkPatterns(opt.Patterns); err != nil {
		return DiffStats{}, err
	}
	inMap, err := matchByName(pa.inputs, pb.inputs, pb.name, "input")
	if err != nil {
		return DiffStats{}, err
	}
	stMap, err := matchByName(pa.ffs, pb.ffs, pb.name, "flip-flop")
	if err != nil {
		return DiffStats{}, err
	}
	if len(pa.outs) != len(pb.outs) {
		return DiffStats{}, fmt.Errorf("sim: output count mismatch: %d vs %d", len(pa.outs), len(pb.outs))
	}

	words := (opt.Patterns + 63) / 64
	totalPatterns := words * 64
	// Each observable pairs a slot of a's net buffer with the slot of
	// b's that it is compared against: outputs by position, next
	// states by flip-flop name.
	type slotPair struct{ a, b int32 }
	obs := make([]slotPair, 0, len(pa.outs)+len(pa.next))
	for i := range pa.outs {
		obs = append(obs, slotPair{pa.outs[i], pb.outs[i]})
	}
	if opt.ObserveState {
		for i, j := range stMap {
			obs = append(obs, slotPair{pa.next[i], pb.next[j]})
		}
	}
	if len(obs) == 0 {
		return DiffStats{}, fmt.Errorf("sim: circuits have no observables")
	}
	w, err := resolveWidth(opt.Width, words)
	if err != nil {
		return DiffStats{}, err
	}
	// One engine item is one wide word of w×64 patterns; the last item
	// may have idle lanes, which are simulated but not counted.
	items := (words + w - 1) / w

	// Each pattern word consumes this many stimulus words, so lane k of
	// wide item t jumps the stream to word (t*w+k)*stride.
	stride := uint64(len(pa.inputs) + len(pa.ffs))

	type cmpState struct {
		buf, bufB           []uint64
		inA, inB, stA, stB  []uint64
		netsA, netsB        []uint64
		hdBits, errPatterns int
	}
	states, err := engine.Run(items,
		engine.Options{Workers: opt.Workers, Grain: grainForWidth(w), Stop: opt.Stop},
		func(int) *cmpState {
			s := &cmpState{
				buf:  getScratch((len(pa.inputs) + len(pa.ffs) + len(pa.ops)) * w),
				bufB: getScratch((len(pb.inputs) + len(stMap) + len(pb.ops)) * w),
			}
			s.inA, s.stA, s.netsA = carve(s.buf, len(pa.inputs)*w, len(pa.ffs)*w)
			s.inB, s.stB, s.netsB = carve(s.bufB, len(pb.inputs)*w, len(stMap)*w)
			return s
		},
		func(s *cmpState, batch engine.Batch) {
			for t := batch.Start; t < batch.End; t++ {
				base := t * w
				lanes := words - base
				if lanes > w {
					lanes = w
				}
				rng := NewWideRandAt(opt.Seed, uint64(base), stride, w)
				rng.FillWide(s.inA)
				for i, j := range inMap {
					copy(s.inB[j*w:(j+1)*w], s.inA[i*w:])
				}
				rng.FillWide(s.stA)
				for i, j := range stMap {
					copy(s.stB[j*w:(j+1)*w], s.stA[i*w:])
				}
				evalWide(w, &pa.plan, s.inA, s.stA, s.netsA)
				evalWide(w, &pb.plan, s.inB, s.stB, s.netsB)
				var anyDiff [MaxWidth]uint64
				for _, o := range obs {
					x, y := s.netsA[int(o.a)*w:], s.netsB[int(o.b)*w:]
					for k := 0; k < lanes; k++ {
						d := x[k] ^ y[k]
						s.hdBits += bits.OnesCount64(d)
						anyDiff[k] |= d
					}
				}
				for k := 0; k < lanes; k++ {
					s.errPatterns += bits.OnesCount64(anyDiff[k])
				}
			}
		})
	for _, s := range states {
		putScratch(s.buf)
		putScratch(s.bufB)
	}
	if err != nil {
		return DiffStats{}, err
	}

	var hdBits, errPatterns int
	for _, s := range states {
		hdBits += s.hdBits
		errPatterns += s.errPatterns
	}
	return DiffStats{
		Patterns: totalPatterns,
		HD:       float64(hdBits) / float64(totalPatterns*len(obs)),
		OER:      float64(errPatterns) / float64(totalPatterns),
		PlanOps:  len(pa.ops) + len(pb.ops),
	}, nil
}

// EquivalentOpt reports whether a and b agreed on every simulated
// pattern; it is a cheap necessary condition used as an LEC prefilter.
// opt sets the stimulus (patterns, seed) and the worker cap, width and
// stop flag. ObserveState is forced on: equivalence must cover
// next-state functions.
func EquivalentOpt(a, b *netlist.Circuit, opt CompareOptions) (bool, error) {
	opt.ObserveState = true
	d, err := Compare(a, b, opt)
	if err != nil {
		return false, err
	}
	return d.OER == 0, nil
}

// checkPatterns rejects a pattern count above MaxPatterns.
func checkPatterns(n int) error {
	if n > MaxPatterns {
		return fmt.Errorf("sim: %d patterns exceed the limit of %d", n, MaxPatterns)
	}
	return nil
}

// grainForWidth scales engine.DefaultGrain down by a simulation word
// width: at width w one engine item covers w×64 patterns, so dividing
// keeps a batch at the same ~4096-pattern cost regardless of width and
// the sharding balanced. The result never drops below 1.
func grainForWidth(w int) int {
	return max(engine.DefaultGrain/w, 1)
}

// matchByName maps positions in as to positions in bs by name; bName
// names the circuit bs belongs to.
func matchByName(as, bs []string, bName, kind string) ([]int, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("sim: %s count mismatch: %d vs %d", kind, len(as), len(bs))
	}
	pos := make(map[string]int, len(bs))
	for j, name := range bs {
		pos[name] = j
	}
	m := make([]int, len(as))
	for i, name := range as {
		j, ok := pos[name]
		if !ok {
			return nil, fmt.Errorf("sim: %s %q missing in %s", kind, name, bName)
		}
		m[i] = j
	}
	return m, nil
}

// NetPair is one observable of an in-place edit: the net that carries
// it in the circuit before the edit and the one that carries it after.
// They differ where the edit moved a flip-flop's D pin to a new driver.
type NetPair struct{ Before, After netlist.GateID }

// Edit is an in-place edit of an evaluator's circuit, described by what
// it can change: Cone is its forward cone in the edited circuit,
// compiled with CompileCone in topological order (every gate the edit
// added and every gate whose fanin it changed, plus their
// combinational fanout), Ties the TIE cells the edit added (which
// CompileCone skips) and Observed the primary outputs and flip-flop
// next states that the cone reaches.
type Edit struct {
	Cone     *Cone
	Ties     []netlist.GateID
	Observed []NetPair
}

// EquivalentEdit is EquivalentOpt(before, after, CompareOptions{
// Patterns: patterns, Seed: seed}) for an edit made in place: before is
// the circuit as e was compiled from it, after the same circuit object
// now, with its gate IDs kept, gates added and gates killed. The answer
// is the same provided the edit kept the primary inputs, outputs and
// flip-flops and d lists every observable it can reach: every other
// observable reads only gates the edit left alone, so it cannot
// differ.
//
// It simulates before once under EquivalentOpt's stimulus, then
// re-runs only d.Cone over the same buffer, which reads before's values
// at the cone boundary, and compares d.Observed. The first difference
// ends the run.
func (e *Evaluator) EquivalentEdit(d *Edit, patterns int, seed uint64) (bool, error) {
	if patterns <= 0 {
		patterns = 65536
	}
	if err := checkPatterns(patterns); err != nil {
		return false, err
	}
	words := (patterns + 63) / 64
	w := AutoWidth(words)
	n := e.c.NumIDs()
	buf := getScratch((e.nIn + e.nState + n + len(d.Observed)) * w)
	defer putScratch(buf)
	in, st, rest := carve(buf, e.nIn*w, e.nState*w)
	nets, saved := rest[:n*w], rest[n*w:]
	// The edit's TIE cells drive the same constant in every pass.
	for _, t := range d.Ties {
		v := uint64(0)
		if e.c.Gate(t).Type == netlist.TieHi {
			v = ^uint64(0)
		}
		for k := range w {
			nets[int(t)*w+k] = v
		}
	}
	stride := uint64(e.nIn + e.nState)
	for base := 0; base < words; base += w {
		lanes := min(w, words-base)
		rng := NewWideRandAt(seed, uint64(base), stride, w)
		rng.FillWide(in)
		rng.FillWide(st)
		evalWide(w, &e.plan, in, st, nets)
		for i, o := range d.Observed {
			copy(saved[i*w:(i+1)*w], nets[int(o.Before)*w:])
		}
		evalWide(w, &d.Cone.plan, nil, nil, nets)
		for i, o := range d.Observed {
			x, y := nets[int(o.After)*w:], saved[i*w:]
			for k := 0; k < lanes; k++ {
				if x[k] != y[k] {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// ActivityOptions tunes ActivityOpt.
type ActivityOptions struct {
	// Patterns is the number of random patterns (rounded up to a
	// multiple of 64), at most MaxPatterns. Defaults to 4096.
	Patterns int
	// Seed selects the stimulus stream.
	Seed uint64
	// Workers caps the simulation worker pool (0 = GOMAXPROCS).
	Workers int
	// Width is the simulation width (1, 4 or 8; 0 auto-selects).
	// Activity estimates are bit-identical at every width.
	Width int
	// Stop, when non-nil and set, cancels the estimation; ActivityOpt
	// then returns engine.ErrStopped.
	Stop *atomic.Bool
}

// ActivityOpt estimates per-net switching activity (2·p·(1−p) with p
// the signal probability) over random patterns. The result is indexed
// by GateID and feeds the dynamic power model. Pattern words are
// sharded across the engine worker pool; the count merge is exact, so
// results do not depend on the worker count or the simulation width.
func ActivityOpt(c *netlist.Circuit, opt ActivityOptions) ([]float64, error) {
	e, err := NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	ones, total, err := e.countOnes(nil, opt)
	if err != nil {
		return nil, err
	}
	act := make([]float64, c.NumIDs())
	for i, n := range ones {
		if c.Alive(netlist.GateID(i)) {
			act[i] = activity(n, total)
		}
	}
	return act, nil
}

// Activity estimates the switching activity of the gates ids of the
// evaluator's circuit: act[k] is bit-identical to ActivityOpt's entry
// for ids[k] (0 for a dead gate). It is for callers that estimate one
// unchanged circuit under many seeds and read only a few gates: the
// circuit is compiled once, not once per estimate, and only the gates
// asked for are counted. The circuit must not have been edited since
// NewEvaluator.
func (e *Evaluator) Activity(ids []netlist.GateID, opt ActivityOptions) ([]float64, error) {
	ones, total, err := e.countOnes(ids, opt)
	if err != nil {
		return nil, err
	}
	act := make([]float64, len(ids))
	for k, id := range ids {
		if e.c.Alive(id) {
			act[k] = activity(ones[k], total)
		}
	}
	return act, nil
}

// activity is 2·p·(1−p) for a net that was one in n of total patterns.
func activity(n int, total float64) float64 {
	p := float64(n) / total
	return 2 * p * (1 - p)
}

// countOnes simulates the patterns of opt and counts, for each gate of
// ids (each net ID when ids is nil), the patterns in which it is one.
// It also returns the pattern count.
func (e *Evaluator) countOnes(ids []netlist.GateID, opt ActivityOptions) (ones []int, total float64, err error) {
	c := e.c
	if opt.Patterns <= 0 {
		opt.Patterns = 4096
	}
	if err := checkPatterns(opt.Patterns); err != nil {
		return nil, 0, err
	}
	words := (opt.Patterns + 63) / 64
	w, err := resolveWidth(opt.Width, words)
	if err != nil {
		return nil, 0, err
	}
	items := (words + w - 1) / w
	stride := uint64(len(c.Inputs()) + e.NumState())
	counted := len(ids)
	if ids == nil {
		counted = c.NumIDs()
	}

	type actState struct {
		buf, in, st, nets []uint64
		ones              []int
	}
	states, err := engine.Run(items,
		engine.Options{Workers: opt.Workers, Grain: grainForWidth(w), Stop: opt.Stop},
		func(int) *actState {
			s := &actState{ones: make([]int, counted)}
			s.buf = getScratch((len(c.Inputs()) + e.NumState() + c.NumIDs()) * w)
			s.in, s.st, s.nets = carve(s.buf, len(c.Inputs())*w, e.NumState()*w)
			return s
		},
		func(s *actState, batch engine.Batch) {
			for t := batch.Start; t < batch.End; t++ {
				base := t * w
				lanes := words - base
				if lanes > w {
					lanes = w
				}
				rng := NewWideRandAt(opt.Seed, uint64(base), stride, w)
				rng.FillWide(s.in)
				rng.FillWide(s.st)
				e.EvalWide(w, s.in, s.st, s.nets)
				for i := range s.ones {
					at := i
					if ids != nil {
						at = int(ids[i])
					}
					n := 0
					for k := 0; k < lanes; k++ {
						n += bits.OnesCount64(s.nets[at*w+k])
					}
					s.ones[i] += n
				}
			}
		})
	for _, s := range states {
		putScratch(s.buf)
	}
	if err != nil {
		return nil, 0, err
	}

	ones = states[0].ones
	for _, s := range states[1:] {
		for i, n := range s.ones {
			ones[i] += n
		}
	}
	return ones, float64(words * 64), nil
}

// scratchPool recycles the per-worker word buffers of Compare and
// activity runs, which callers such as ATPG locking start thousands of
// times. A run writes the stimulus and every compiled gate's net before
// reading them, so a recycled buffer needs no clearing; only the slots
// of dead gates keep stale words, and no result depends on those.
var scratchPool sync.Pool

// getScratch returns a word buffer of length n, recycled when possible.
func getScratch(n int) []uint64 {
	if b, ok := scratchPool.Get().(*[]uint64); ok && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]uint64, n)
}

// putScratch hands a getScratch buffer back for reuse.
func putScratch(b []uint64) {
	if b != nil {
		scratchPool.Put(&b)
	}
}

// carve splits buf into its first n1 words, the next n2 and the rest.
func carve(buf []uint64, n1, n2 int) (x, y, z []uint64) {
	return buf[:n1:n1], buf[n1 : n1+n2 : n1+n2], buf[n1+n2:]
}
