package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/netlist"
)

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
	// multiple of 64). Defaults to 65536.
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
	if opt.Patterns <= 0 {
		opt.Patterns = 65536
	}
	aFFs, bFFs := a.DFFs(), b.DFFs()
	pa, err := compileObserved(a, aFFs, opt.ObserveState)
	if err != nil {
		return DiffStats{}, fmt.Errorf("sim: compiling %s: %w", a.Name, err)
	}
	pb, err := compileObserved(b, bFFs, opt.ObserveState)
	if err != nil {
		return DiffStats{}, fmt.Errorf("sim: compiling %s: %w", b.Name, err)
	}
	inMap, err := matchByName(a, b, a.Inputs(), b.Inputs(), "input")
	if err != nil {
		return DiffStats{}, err
	}
	stMap, err := matchByName(a, b, aFFs, bFFs, "flip-flop")
	if err != nil {
		return DiffStats{}, err
	}
	if len(a.Outputs()) != len(b.Outputs()) {
		return DiffStats{}, fmt.Errorf("sim: output count mismatch: %d vs %d", len(a.Outputs()), len(b.Outputs()))
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
	stride := uint64(len(a.Inputs()) + len(aFFs))

	type cmpState struct {
		inA, inB, stA, stB  []uint64
		netsA, netsB        []uint64
		hdBits, errPatterns int
	}
	states, err := engine.Run(items,
		engine.Options{Workers: opt.Workers, Grain: engine.GrainForWidth(w), Stop: opt.Stop},
		func(int) *cmpState {
			return &cmpState{
				inA:   make([]uint64, len(a.Inputs())*w),
				inB:   make([]uint64, len(b.Inputs())*w),
				stA:   make([]uint64, len(aFFs)*w),
				stB:   make([]uint64, len(stMap)*w),
				netsA: make([]uint64, len(pa.ops)*w),
				netsB: make([]uint64, len(pb.ops)*w),
			}
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

// Equivalent reports whether a and b agreed on every simulated pattern;
// it is a cheap necessary condition used as an LEC prefilter.
func Equivalent(a, b *netlist.Circuit, patterns int, seed uint64) (bool, error) {
	return EquivalentOpt(a, b, CompareOptions{Patterns: patterns, Seed: seed})
}

// EquivalentOpt is Equivalent with full CompareOptions (worker cap,
// width, stop flag). ObserveState is forced on: equivalence must cover
// next-state functions.
func EquivalentOpt(a, b *netlist.Circuit, opt CompareOptions) (bool, error) {
	opt.ObserveState = true
	d, err := Compare(a, b, opt)
	if err != nil {
		return false, err
	}
	return d.OER == 0, nil
}

// matchByName maps positions in as to positions in bs by gate name.
func matchByName(a, b *netlist.Circuit, as, bs []netlist.GateID, kind string) ([]int, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("sim: %s count mismatch: %d vs %d", kind, len(as), len(bs))
	}
	pos := make(map[string]int, len(bs))
	for j, id := range bs {
		pos[b.Gate(id).Name] = j
	}
	m := make([]int, len(as))
	for i, id := range as {
		j, ok := pos[a.Gate(id).Name]
		if !ok {
			return nil, fmt.Errorf("sim: %s %q missing in %s", kind, a.Gate(id).Name, b.Name)
		}
		m[i] = j
	}
	return m, nil
}

// ActivityOptions tunes ActivityOpt.
type ActivityOptions struct {
	// Patterns is the number of random patterns (rounded up to a
	// multiple of 64). Defaults to 4096.
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

// Activity estimates per-net switching activity (2·p·(1−p) with p the
// signal probability) over random patterns. The result is indexed by
// GateID and feeds the dynamic power model.
func Activity(c *netlist.Circuit, patterns int, seed uint64) ([]float64, error) {
	return ActivityOpt(c, ActivityOptions{Patterns: patterns, Seed: seed})
}

// ActivityOpt is Activity with worker, width and cancellation options.
// Pattern words are sharded across the engine worker pool; the count
// merge is exact, so results do not depend on the worker count or the
// simulation width.
func ActivityOpt(c *netlist.Circuit, opt ActivityOptions) ([]float64, error) {
	e, err := NewEvaluator(c)
	if err != nil {
		return nil, err
	}
	if opt.Patterns <= 0 {
		opt.Patterns = 4096
	}
	words := (opt.Patterns + 63) / 64
	w, err := resolveWidth(opt.Width, words)
	if err != nil {
		return nil, err
	}
	items := (words + w - 1) / w
	stride := uint64(len(c.Inputs()) + e.NumState())

	type actState struct {
		in, st, nets []uint64
		ones         []int
	}
	states, err := engine.Run(items,
		engine.Options{Workers: opt.Workers, Grain: engine.GrainForWidth(w), Stop: opt.Stop},
		func(int) *actState {
			return &actState{
				in:   make([]uint64, len(c.Inputs())*w),
				st:   make([]uint64, e.NumState()*w),
				nets: e.NewWideNetBuffer(w),
				ones: make([]int, c.NumIDs()),
			}
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
					n := 0
					for k := 0; k < lanes; k++ {
						n += bits.OnesCount64(s.nets[i*w+k])
					}
					s.ones[i] += n
				}
			}
		})
	if err != nil {
		return nil, err
	}

	ones := states[0].ones
	for _, s := range states[1:] {
		for i, n := range s.ones {
			ones[i] += n
		}
	}
	total := float64(words * 64)
	act := make([]float64, c.NumIDs())
	for i, n := range ones {
		if !c.Alive(netlist.GateID(i)) {
			continue
		}
		p := float64(n) / total
		act[i] = 2 * p * (1 - p)
	}
	return act, nil
}
