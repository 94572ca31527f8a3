// Package sim implements bit-parallel logic simulation of netlist
// circuits, deterministic random stimulus generation, and the
// output-difference metrics used throughout the paper's evaluation
// (Hamming distance and output error rate over random pattern runs).
//
// Simulation is word-parallel: every net carries W machine words of 64
// patterns each (W ∈ {1, 4, 8}), stored as a flat []uint64 with stride
// W. Width never changes results — lane k of a wide word carries
// exactly the 64-pattern word the serial stream would have produced at
// position base+k (see WideRand) — it only changes how many patterns
// one pass evaluates.
//
// Every simulation runs a compiled plan (see plan) through one
// interpreter, evalPlan, which dispatches once per run of same-opcode
// gates and writes each gate's lanes in place. Evaluator compiles the
// whole circuit, because its callers read arbitrary nets. Compare
// compiles only the transitive fanin of what it observes, into a dense
// net buffer. Both order their gates by logic level and then opcode,
// which makes the runs long. Cone compiles a caller-chosen gate subset
// in the caller's order.
package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Evaluator is a compiled simulator for one circuit: the whole circuit
// is flattened into a levelized plan with specialized opcodes
// (dedicated 2-input and 1-input paths instead of a generic fanin
// loop), so the inner Eval loop performs no map lookups and never
// touches the circuit graph. Every net gets a value, indexed by its
// gate ID. It is safe for concurrent use as long as each goroutine
// supplies its own net buffer.
type Evaluator struct {
	c      *netlist.Circuit
	nIn    int
	nState int
	plan
}

// NewEvaluator compiles the circuit for simulation. The circuit must
// be structurally valid (acyclic combinational core).
func NewEvaluator(c *netlist.Circuit) (*Evaluator, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	dffs := c.DFFs()
	p, err := compileCircuit(c, order, dffs, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Evaluator{c: c, nIn: len(c.Inputs()), nState: len(dffs), plan: p}, nil
}

// Cone is a compiled plan for a subset of one circuit's gates. It
// re-evaluates part of a net buffer in place, for example after the
// caller has forced some nets to chosen values.
type Cone struct{ plan }

// CompileCone compiles the gates ids, which must be in topological
// order, for Cone.Eval. Sources (inputs, flip-flops and TIE cells) are
// skipped, so they keep their buffer value; so does every net outside
// ids. The cone keeps the order it is given, cut into runs wherever
// the opcode changes: levelizing would need a gate-to-level lookup,
// and locking compiles thousands of small cones that are each
// evaluated only a few times, so the compile must stay a single pass
// linear in len(ids).
func CompileCone(c *netlist.Circuit, ids []netlist.GateID) (*Cone, error) {
	k := &Cone{plan{ops: make([]evalOp, 0, len(ids)), runs: make([]opRun, 0, len(ids))}}
	for _, id := range ids {
		g := c.Gate(id)
		if g.Type.IsSource() {
			continue
		}
		code := opcodeOf(g)
		if code == opInvalid {
			return nil, fmt.Errorf("sim: gate %d has unknown type %v", id, g.Type)
		}
		k.ops = append(k.ops, k.operands(g, code, evalOp{out: int32(id)}, nil))
		k.runs = appendOp(k.runs, code, len(k.ops))
	}
	return k, nil
}

// Eval recomputes the cone's gates, in the order CompileCone was
// given, from the 64-pattern net buffer nets (one word per net ID) and
// writes them back into it.
func (k *Cone) Eval(nets []uint64) {
	evalPlan(&k.plan, nil, nil, lanesOf[[1]uint64](nets))
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
