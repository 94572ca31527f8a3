// Package sim implements bit-parallel logic simulation of netlist
// circuits, deterministic random stimulus generation, and the
// output-difference metrics used throughout the paper's evaluation
// (Hamming distance and output error rate over random pattern runs).
//
// Simulation is word-parallel: every net carries W machine words of 64
// patterns each (W ∈ {1, 4, 8}), stored as a flat []uint64 with stride
// W so the compiled inner loops auto-vectorize. Width never changes
// results — lane k of a wide word carries exactly the 64-pattern word
// the serial stream would have produced at position base+k (see
// WideRand) — it only changes how many patterns one pass evaluates.
package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Evaluator is a compiled simulator for one circuit: the topological
// order is flattened into a dense op list with specialized opcodes
// (dedicated 2-input and 1-input paths instead of a generic fanin
// loop), so the inner Eval loop performs no map lookups and never
// touches the circuit graph. It is safe for concurrent use as long as
// each goroutine supplies its own net buffer.
type Evaluator struct {
	c      *netlist.Circuit
	nIn    int
	nState int
	plan
}

// plan is a compiled gate list: ops in evaluation order plus the flat
// operand pool that the Mux and wide (≥3-input) ops index into.
// Evaluator and Cone both run theirs through evalPlan.
type plan struct {
	ops    []evalOp
	fanins []int32
}

// opcode selects the specialized evaluation path for one compiled gate.
// The dominant 2-input case stores both fanins inline in the op; only
// Mux and ≥3-input gates go through the fanin pool.
type opcode uint8

const (
	opInput opcode = iota // a = primary-input position
	opState               // a = flip-flop position
	opTieHi
	opTieLo
	opBuf   // a = fanin net
	opNot   // a = fanin net
	opAnd2  // a, b = fanin nets
	opNand2 // a, b = fanin nets
	opOr2   // a, b = fanin nets
	opNor2  // a, b = fanin nets
	opXor2  // a, b = fanin nets
	opXnor2 // a, b = fanin nets
	opMux   // a = fanin-pool offset of {sel, d0, d1}
	opAndN  // a = fanin-pool offset, b = fanin count
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// evalOp is one compiled gate evaluation. The meaning of a and b
// depends on the opcode; see the opcode constants.
type evalOp struct {
	op   opcode
	out  int32
	a, b int32
}

// NewEvaluator compiles the circuit for simulation. The circuit must
// be structurally valid (acyclic combinational core).
func NewEvaluator(c *netlist.Circuit) (*Evaluator, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		c:      c,
		nIn:    len(c.Inputs()),
		nState: len(c.DFFs()),
		plan:   plan{ops: make([]evalOp, 0, len(order))},
	}
	// Input and flip-flop IDs are disjoint, so one map holds both
	// position vectors.
	pos := make(map[netlist.GateID]int32, e.nIn+e.nState)
	for i, id := range c.Inputs() {
		pos[id] = int32(i)
	}
	for i, id := range c.DFFs() {
		pos[id] = int32(i)
	}
	for _, id := range order {
		if err := e.compileGate(c, id, pos); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Cone is a compiled plan for a subset of one circuit's gates. It
// re-evaluates part of a net buffer in place, for example after the
// caller has forced some nets to chosen values.
type Cone struct{ plan }

// CompileCone compiles the gates ids, which must be in topological
// order, for Cone.Eval. Sources (inputs, flip-flops and TIE cells) are
// skipped, so they keep their buffer value.
func CompileCone(c *netlist.Circuit, ids []netlist.GateID) (*Cone, error) {
	k := &Cone{plan{ops: make([]evalOp, 0, len(ids))}}
	for _, id := range ids {
		if c.Gate(id).Type.IsSource() {
			continue
		}
		if err := k.compileGate(c, id, nil); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// Eval recomputes the cone's gates, in order, from the 64-pattern net
// buffer nets (one word per net ID) and writes them back into it.
func (k *Cone) Eval(nets []uint64) {
	evalPlan(&k.plan, nil, nil, lanesOf[[1]uint64](nets))
}

// compileGate appends the op that evaluates gate id. pos gives the
// input or flip-flop position of source gates.
func (p *plan) compileGate(c *netlist.Circuit, id netlist.GateID, pos map[netlist.GateID]int32) error {
	g := c.Gate(id)
	op := evalOp{out: int32(id)}
	switch g.Type {
	case netlist.Input:
		op.op, op.a = opInput, pos[id]
	case netlist.DFF:
		op.op, op.a = opState, pos[id]
	case netlist.TieHi:
		op.op = opTieHi
	case netlist.TieLo:
		op.op = opTieLo
	case netlist.Buf, netlist.Output:
		op.op, op.a = opBuf, int32(g.Fanin[0])
	case netlist.Not:
		op.op, op.a = opNot, int32(g.Fanin[0])
	case netlist.Mux:
		op.op, op.a = opMux, int32(len(p.fanins))
		for _, f := range g.Fanin {
			p.fanins = append(p.fanins, int32(f))
		}
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
		op = p.compileNary(g, op)
	default:
		return fmt.Errorf("sim: gate %d has unknown type %v", id, g.Type)
	}
	p.ops = append(p.ops, op)
	return nil
}

// compileNary lowers an associative gate to its specialized opcode:
// degenerate arities collapse to constants or inverters (matching the
// identity element of the generic fold), 2-input gates inline both
// fanins, and wider gates fall back to the fanin pool.
func (p *plan) compileNary(g *netlist.Gate, op evalOp) evalOp {
	var two, n opcode
	inverted := false
	switch g.Type {
	case netlist.And:
		two, n = opAnd2, opAndN
	case netlist.Nand:
		two, n, inverted = opNand2, opNandN, true
	case netlist.Or:
		two, n = opOr2, opOrN
	case netlist.Nor:
		two, n, inverted = opNor2, opNorN, true
	case netlist.Xor:
		two, n = opXor2, opXorN
	case netlist.Xnor:
		two, n, inverted = opXnor2, opXnorN, true
	}
	switch len(g.Fanin) {
	case 0:
		// Fold identity: And()=1, Or()=Xor()=0; inversions flip it.
		hi := g.Type == netlist.And
		if inverted {
			hi = !hi
		}
		if g.Type == netlist.Nand {
			hi = false
		}
		if hi {
			op.op = opTieHi
		} else {
			op.op = opTieLo
		}
	case 1:
		if inverted {
			op.op = opNot
		} else {
			op.op = opBuf
		}
		op.a = int32(g.Fanin[0])
	case 2:
		op.op, op.a, op.b = two, int32(g.Fanin[0]), int32(g.Fanin[1])
	default:
		op.op, op.a, op.b = n, int32(len(p.fanins)), int32(len(g.Fanin))
		for _, f := range g.Fanin {
			p.fanins = append(p.fanins, int32(f))
		}
	}
	return op
}

// Circuit returns the circuit this evaluator was compiled from.
func (e *Evaluator) Circuit() *netlist.Circuit { return e.c }

// NumInputs returns the width of the input vector.
func (e *Evaluator) NumInputs() int { return e.nIn }

// NumState returns the width of the state (flip-flop) vector.
func (e *Evaluator) NumState() int { return e.nState }

// NewNetBuffer allocates a buffer sized for Eval.
func (e *Evaluator) NewNetBuffer() []uint64 { return make([]uint64, e.c.NumIDs()) }

// Eval simulates 64 parallel patterns. in holds one word per primary
// input (bit i of word j = value of input j in pattern i); state holds
// one word per flip-flop in DFFs() order (may be nil when the circuit
// has no flip-flops). nets must have length NumIDs and receives the
// value of every net. Eval is the width-1 instantiation of the wide
// kernel; see EvalWide.
func (e *Evaluator) Eval(in, state, nets []uint64) {
	evalPlan(&e.plan, lanesOf[[1]uint64](in), lanesOf[[1]uint64](state), lanesOf[[1]uint64](nets))
}

// OutputWords extracts the primary output values from a net buffer, in
// Outputs() order.
func (e *Evaluator) OutputWords(nets, dst []uint64) []uint64 {
	outs := e.c.Outputs()
	if cap(dst) < len(outs) {
		dst = make([]uint64, len(outs))
	}
	dst = dst[:len(outs)]
	for i, o := range outs {
		dst[i] = nets[o]
	}
	return dst
}

// NextStateWords extracts the flip-flop next-state values (the D pins)
// from a net buffer, in DFFs() order.
func (e *Evaluator) NextStateWords(nets, dst []uint64) []uint64 {
	ffs := e.c.DFFs()
	if cap(dst) < len(ffs) {
		dst = make([]uint64, len(ffs))
	}
	dst = dst[:len(ffs)]
	for i, ff := range ffs {
		dst[i] = nets[e.c.Gate(ff).Fanin[0]]
	}
	return dst
}

// Rand is a deterministic splitmix64 pattern generator.
type Rand struct{ s uint64 }

// NewRand seeds a generator; the same seed always yields the same
// stimulus stream.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// NewRandAt returns a generator positioned skip words into the stream
// of NewRand(seed). The splitmix64 state advances by a fixed increment
// per word, so the jump is O(1); parallel workers use it to start
// mid-stream and reproduce the serial stimulus bit-for-bit.
func NewRandAt(seed, skip uint64) *Rand {
	return &Rand{s: seed + skip*0x9e3779b97f4a7c15}
}

// Word returns the next 64 random bits.
func (r *Rand) Word() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return float64(r.Word()>>11) / (1 << 53) }

// Intn returns a uniform value in [0,n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Word() % uint64(n))
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fill fills dst with random words.
func (r *Rand) Fill(dst []uint64) {
	for i := range dst {
		dst[i] = r.Word()
	}
}

// ExhaustiveWords fills in with the chunk'th block of 64 exhaustive
// patterns over n variables: pattern index p = chunk*64 + bit assigns
// variable i the i'th bit of p. n must be at most 63.
func ExhaustiveWords(in []uint64, n, chunk int) {
	if n > 63 {
		panic(fmt.Sprintf("sim: exhaustive enumeration over %d variables", n))
	}
	base := uint64(chunk) << 6
	for i := 0; i < n; i++ {
		var w uint64
		if i < 6 {
			w = exhaustMask(i)
		} else {
			if base>>(uint(i))&1 == 1 {
				w = ^uint64(0)
			}
		}
		in[i] = w
	}
}

// exhaustMask returns the canonical bit pattern for low-order variable
// i in a 64-pattern block: variable 0 alternates every bit, variable 1
// every 2 bits, and so on.
func exhaustMask(i int) uint64 {
	switch i {
	case 0:
		return 0xaaaaaaaaaaaaaaaa
	case 1:
		return 0xcccccccccccccccc
	case 2:
		return 0xf0f0f0f0f0f0f0f0
	case 3:
		return 0xff00ff00ff00ff00
	case 4:
		return 0xffff0000ffff0000
	case 5:
		return 0xffffffff00000000
	}
	panic("sim: exhaustMask index out of range")
}
