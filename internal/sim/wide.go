package sim

import (
	"fmt"
	"unsafe"
)

// MaxWidth is the largest supported simulation width, in 64-pattern
// machine words per net.
const MaxWidth = 8

// Widths lists the supported simulation widths. Each width has its own
// compiled kernel instantiation whose inner loops have a constant trip
// count, so the gc backend unrolls (and, where profitable, vectorizes)
// them.
var Widths = []int{1, 4, 8}

// ValidWidth reports whether w is a supported simulation width.
func ValidWidth(w int) bool { return w == 1 || w == 4 || w == 8 }

// AutoWidth picks the simulation width for a run of the given number
// of 64-pattern words: the largest supported width that keeps every
// lane busy, so tiny runs don't pay for idle lanes.
func AutoWidth(words int) int {
	switch {
	case words >= 8:
		return 8
	case words >= 4:
		return 4
	default:
		return 1
	}
}

// resolveWidth validates an explicit width or auto-selects one (w = 0)
// from the run length.
func resolveWidth(w, words int) (int, error) {
	if w == 0 {
		return AutoWidth(words), nil
	}
	if !ValidWidth(w) {
		return 0, fmt.Errorf("sim: unsupported width %d (want 1, 4 or 8)", w)
	}
	return w, nil
}

// lanes constrains the per-net word group the generic kernel is
// instantiated over. The three array lengths are distinct gcshapes, so
// each width gets its own specialization.
type lanes interface {
	[1]uint64 | [4]uint64 | [8]uint64
}

// lanesOf reinterprets a flat stride-W buffer as a slice of W-word
// groups. The layouts are identical ([W]uint64 is W contiguous words),
// so this is a view, not a copy.
func lanesOf[W lanes](buf []uint64) []W {
	var z W
	w := len(z)
	if len(buf) == 0 {
		return nil
	}
	if len(buf)%w != 0 {
		panic(fmt.Sprintf("sim: buffer length %d not a multiple of width %d", len(buf), w))
	}
	return unsafe.Slice((*W)(unsafe.Pointer(&buf[0])), len(buf)/w)
}

// evalPlan runs a compiled plan over W-word net values. It is the
// single source of truth for gate semantics at every width; Eval,
// EvalWide and Cone.Eval are thin dispatchers over its instantiations.
func evalPlan[W lanes](p *plan, in, state, nets []W) {
	fan := p.fanins
	for i := range p.ops {
		op := &p.ops[i]
		var v W
		switch op.op {
		case opInput:
			v = in[op.a]
		case opState:
			if state != nil {
				v = state[op.a]
			}
		case opTieHi:
			for k := 0; k < len(v); k++ {
				v[k] = ^uint64(0)
			}
		case opTieLo:
			// zero value
		case opBuf:
			v = nets[op.a]
		case opNot:
			x := nets[op.a]
			for k := 0; k < len(v); k++ {
				v[k] = ^x[k]
			}
		case opAnd2:
			x, y := nets[op.a], nets[op.b]
			for k := 0; k < len(v); k++ {
				v[k] = x[k] & y[k]
			}
		case opNand2:
			x, y := nets[op.a], nets[op.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(x[k] & y[k])
			}
		case opOr2:
			x, y := nets[op.a], nets[op.b]
			for k := 0; k < len(v); k++ {
				v[k] = x[k] | y[k]
			}
		case opNor2:
			x, y := nets[op.a], nets[op.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(x[k] | y[k])
			}
		case opXor2:
			x, y := nets[op.a], nets[op.b]
			for k := 0; k < len(v); k++ {
				v[k] = x[k] ^ y[k]
			}
		case opXnor2:
			x, y := nets[op.a], nets[op.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(x[k] ^ y[k])
			}
		case opMux:
			s, d0, d1 := nets[fan[op.a]], nets[fan[op.a+1]], nets[fan[op.a+2]]
			for k := 0; k < len(v); k++ {
				v[k] = (^s[k] & d0[k]) | (s[k] & d1[k])
			}
		case opAndN:
			for k := 0; k < len(v); k++ {
				v[k] = ^uint64(0)
			}
			for _, f := range fan[op.a : op.a+op.b] {
				x := nets[f]
				for k := 0; k < len(v); k++ {
					v[k] &= x[k]
				}
			}
		case opNandN:
			for k := 0; k < len(v); k++ {
				v[k] = ^uint64(0)
			}
			for _, f := range fan[op.a : op.a+op.b] {
				x := nets[f]
				for k := 0; k < len(v); k++ {
					v[k] &= x[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		case opOrN:
			for _, f := range fan[op.a : op.a+op.b] {
				x := nets[f]
				for k := 0; k < len(v); k++ {
					v[k] |= x[k]
				}
			}
		case opNorN:
			for _, f := range fan[op.a : op.a+op.b] {
				x := nets[f]
				for k := 0; k < len(v); k++ {
					v[k] |= x[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		case opXorN:
			for _, f := range fan[op.a : op.a+op.b] {
				x := nets[f]
				for k := 0; k < len(v); k++ {
					v[k] ^= x[k]
				}
			}
		case opXnorN:
			for _, f := range fan[op.a : op.a+op.b] {
				x := nets[f]
				for k := 0; k < len(v); k++ {
					v[k] ^= x[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		}
		nets[op.out] = v
	}
}

// NewWideNetBuffer allocates a stride-w net buffer sized for EvalWide.
func (e *Evaluator) NewWideNetBuffer(w int) []uint64 {
	return make([]uint64, e.c.NumIDs()*w)
}

// EvalWide simulates w×64 parallel patterns in one pass. All buffers
// are flat with stride w: signal i's lane k lives at index i*w+k. in
// holds w words per primary input, state w words per flip-flop (nil
// when there are none), nets receives w words per net and must have
// length NumIDs*w. w must be a supported width (see Widths).
func (e *Evaluator) EvalWide(w int, in, state, nets []uint64) {
	switch w {
	case 1:
		evalPlan(&e.plan, lanesOf[[1]uint64](in), lanesOf[[1]uint64](state), lanesOf[[1]uint64](nets))
	case 4:
		evalPlan(&e.plan, lanesOf[[4]uint64](in), lanesOf[[4]uint64](state), lanesOf[[4]uint64](nets))
	case 8:
		evalPlan(&e.plan, lanesOf[[8]uint64](in), lanesOf[[8]uint64](state), lanesOf[[8]uint64](nets))
	default:
		panic(fmt.Sprintf("sim: unsupported width %d", w))
	}
}

// OutputWordsWide extracts the primary output lanes from a stride-w net
// buffer, in Outputs() order: output i's lane k lands at dst[i*w+k].
func (e *Evaluator) OutputWordsWide(w int, nets, dst []uint64) []uint64 {
	outs := e.c.Outputs()
	n := len(outs) * w
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i, o := range outs {
		copy(dst[i*w:(i+1)*w], nets[int(o)*w:])
	}
	return dst
}

// NextStateWordsWide extracts the flip-flop next-state lanes (the D
// pins) from a stride-w net buffer, in DFFs() order.
func (e *Evaluator) NextStateWordsWide(w int, nets, dst []uint64) []uint64 {
	ffs := e.c.DFFs()
	n := len(ffs) * w
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i, ff := range ffs {
		d := int(e.c.Gate(ff).Fanin[0])
		copy(dst[i*w:(i+1)*w], nets[d*w:])
	}
	return dst
}

// WideRand generates w parallel splitmix64 stimulus streams, one per
// lane, such that lane k reproduces the serial stream of
// NewRandAt(seed, (base+k)*stride) bit-for-bit. Widening a run
// therefore never changes the stimulus any pattern sees: wide word t
// lane k carries exactly serial word t*w+k, which is why tables are
// byte-identical at every width.
type WideRand struct {
	s [MaxWidth]uint64
	w int
}

// NewWideRandAt positions a w-lane generator so that lane k sits at
// serial word (base+k)*stride of the seed stream — the O(1) jump the
// serial NewRandAt performs, done once per lane.
func NewWideRandAt(seed, base, stride uint64, w int) *WideRand {
	r := &WideRand{w: w}
	for k := 0; k < w; k++ {
		r.s[k] = seed + (base+uint64(k))*stride*0x9e3779b97f4a7c15
	}
	return r
}

// FillWide fills dst, laid out as len(dst)/w signals with stride w:
// signal i's lane k receives the word the serial stream of lane k
// would produce for signal i. Consecutive FillWide calls continue all
// lanes in lockstep, mirroring consecutive serial Fill calls.
func (r *WideRand) FillWide(dst []uint64) {
	w := r.w
	for i := 0; i+w <= len(dst); i += w {
		for k := 0; k < w; k++ {
			r.s[k] += 0x9e3779b97f4a7c15
			z := r.s[k]
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			dst[i+k] = z ^ (z >> 31)
		}
	}
}
