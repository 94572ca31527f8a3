package sim

import (
	"fmt"
	"unsafe"
)

// MaxWidth is the largest supported simulation width, in 64-pattern
// machine words per net.
const MaxWidth = 8

// Widths lists the supported simulation widths. Each width has its own
// compiled kernel instantiation whose lane loops have a constant trip
// count.
var Widths = []int{1, 4, 8}

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
	if w != 1 && w != 4 && w != 8 {
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
// EvalWide, Cone.Eval and Compare are thin dispatchers over its
// instantiations. It switches once per run of same-opcode ops; the run
// loops below write each op's lanes in place through pointers into
// nets. Inverting opcodes share their base op's loop with an all-ones
// mask XORed into the result.
func evalPlan[W lanes](p *plan, in, state, nets []W) {
	const ones = ^uint64(0)
	var start int32
	for _, r := range p.runs {
		run := p.ops[start:r.end()]
		start = r.end()
		switch r.op() {
		case opInput:
			loadRun(run, in, nets)
		case opState:
			if state != nil {
				loadRun(run, state, nets)
			} else {
				constRun(run, nets, 0)
			}
		case opTieHi:
			constRun(run, nets, ones)
		case opTieLo:
			constRun(run, nets, 0)
		case opBuf:
			bufRun(run, nets, 0)
		case opNot:
			bufRun(run, nets, ones)
		case opAnd2:
			and2Run(run, nets, 0)
		case opNand2:
			and2Run(run, nets, ones)
		case opOr2:
			or2Run(run, nets, 0)
		case opNor2:
			or2Run(run, nets, ones)
		case opXor2:
			xor2Run(run, nets, 0)
		case opXnor2:
			xor2Run(run, nets, ones)
		case opMux:
			muxRun(run, p.fanins, nets)
		case opAndN:
			andNRun(run, p.fanins, nets, 0)
		case opNandN:
			andNRun(run, p.fanins, nets, ones)
		case opOrN:
			orNRun(run, p.fanins, nets, 0)
		case opNorN:
			orNRun(run, p.fanins, nets, ones)
		case opXorN:
			xorNRun(run, p.fanins, nets, 0)
		case opXnorN:
			xorNRun(run, p.fanins, nets, ones)
		}
	}
}

// The run loops are kept out of line on purpose: inlined into
// evalPlan's switch, their lane counters spill to the stack, which
// costs as much as the logic they count.

// loadRun copies each op's boundary value, src[a], into its net.
//
//go:noinline
func loadRun[W lanes](run []evalOp, src, nets []W) {
	for i := range run {
		nets[run[i].out] = src[run[i].a]
	}
}

// constRun sets every lane of each op's net to v.
//
//go:noinline
func constRun[W lanes](run []evalOp, nets []W, v uint64) {
	for i := range run {
		z := &nets[run[i].out]
		for k := 0; k < len(*z); k++ {
			(*z)[k] = v
		}
	}
}

// bufRun computes z = a ^ inv.
//
//go:noinline
func bufRun[W lanes](run []evalOp, nets []W, inv uint64) {
	for i := range run {
		x, z := &nets[run[i].a], &nets[run[i].out]
		for k := 0; k < len(*z); k++ {
			(*z)[k] = (*x)[k] ^ inv
		}
	}
}

// and2Run computes z = (a & b) ^ inv.
//
//go:noinline
func and2Run[W lanes](run []evalOp, nets []W, inv uint64) {
	for i := range run {
		x, y, z := &nets[run[i].a], &nets[run[i].b], &nets[run[i].out]
		for k := 0; k < len(*z); k++ {
			(*z)[k] = ((*x)[k] & (*y)[k]) ^ inv
		}
	}
}

// or2Run computes z = (a | b) ^ inv.
//
//go:noinline
func or2Run[W lanes](run []evalOp, nets []W, inv uint64) {
	for i := range run {
		x, y, z := &nets[run[i].a], &nets[run[i].b], &nets[run[i].out]
		for k := 0; k < len(*z); k++ {
			(*z)[k] = ((*x)[k] | (*y)[k]) ^ inv
		}
	}
}

// xor2Run computes z = a ^ b ^ inv.
//
//go:noinline
func xor2Run[W lanes](run []evalOp, nets []W, inv uint64) {
	for i := range run {
		x, y, z := &nets[run[i].a], &nets[run[i].b], &nets[run[i].out]
		for k := 0; k < len(*z); k++ {
			(*z)[k] = (*x)[k] ^ (*y)[k] ^ inv
		}
	}
}

// muxRun computes z = sel ? d1 : d0 from the operands {sel, d0, d1}
// at fan[a].
//
//go:noinline
func muxRun[W lanes](run []evalOp, fan []int32, nets []W) {
	for i := range run {
		f := fan[run[i].a : run[i].a+3]
		s, d0, d1, z := &nets[f[0]], &nets[f[1]], &nets[f[2]], &nets[run[i].out]
		for k := 0; k < len(*z); k++ {
			(*z)[k] = (^(*s)[k] & (*d0)[k]) | ((*s)[k] & (*d1)[k])
		}
	}
}

// andNRun computes z = AND(fan[a:a+b]) ^ inv; the compiler emits N-ary
// ops only for three or more operands.
//
//go:noinline
func andNRun[W lanes](run []evalOp, fan []int32, nets []W, inv uint64) {
	for i := range run {
		f := fan[run[i].a : run[i].a+run[i].b]
		z := &nets[run[i].out]
		*z = nets[f[0]]
		for _, g := range f[1:] {
			x := &nets[g]
			for k := 0; k < len(*z); k++ {
				(*z)[k] &= (*x)[k]
			}
		}
		for k := 0; k < len(*z); k++ {
			(*z)[k] ^= inv
		}
	}
}

// orNRun computes z = OR(fan[a:a+b]) ^ inv.
//
//go:noinline
func orNRun[W lanes](run []evalOp, fan []int32, nets []W, inv uint64) {
	for i := range run {
		f := fan[run[i].a : run[i].a+run[i].b]
		z := &nets[run[i].out]
		*z = nets[f[0]]
		for _, g := range f[1:] {
			x := &nets[g]
			for k := 0; k < len(*z); k++ {
				(*z)[k] |= (*x)[k]
			}
		}
		for k := 0; k < len(*z); k++ {
			(*z)[k] ^= inv
		}
	}
}

// xorNRun computes z = XOR(fan[a:a+b]) ^ inv.
//
//go:noinline
func xorNRun[W lanes](run []evalOp, fan []int32, nets []W, inv uint64) {
	for i := range run {
		f := fan[run[i].a : run[i].a+run[i].b]
		z := &nets[run[i].out]
		*z = nets[f[0]]
		for _, g := range f[1:] {
			x := &nets[g]
			for k := 0; k < len(*z); k++ {
				(*z)[k] ^= (*x)[k]
			}
		}
		for k := 0; k < len(*z); k++ {
			(*z)[k] ^= inv
		}
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
	evalWide(w, &e.plan, in, state, nets)
}

// evalWide runs p over stride-w buffers through the width's kernel
// instantiation.
func evalWide(w int, p *plan, in, state, nets []uint64) {
	switch w {
	case 1:
		evalPlan(p, lanesOf[[1]uint64](in), lanesOf[[1]uint64](state), lanesOf[[1]uint64](nets))
	case 4:
		evalPlan(p, lanesOf[[4]uint64](in), lanesOf[[4]uint64](state), lanesOf[[4]uint64](nets))
	case 8:
		evalPlan(p, lanesOf[[8]uint64](in), lanesOf[[8]uint64](state), lanesOf[[8]uint64](nets))
	default:
		panic(fmt.Sprintf("sim: unsupported width %d", w))
	}
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
