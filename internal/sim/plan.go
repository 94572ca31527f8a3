package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// plan is a compiled gate list: ops in evaluation order, cut into runs
// that share one opcode, plus the flat operand pool that the Mux and
// wide (≥3-input) ops index into. Evaluator, Cone and Compare's
// observed plans all run theirs through evalPlan, which switches once
// per run, not once per gate.
//
// compileCircuit orders ops by (logic level, opcode). Every op's fanins
// sit at a lower level, so the order is still topological, and the ops
// of one level that share an opcode are adjacent, so runs are long.
// Cone.Recompile keeps its caller's topological order.
type plan struct {
	ops    []evalOp
	runs   []opRun
	fanins []int32
}

// opRun is a maximal stretch of ops with one opcode, packed as
// end<<opcodeBits | opcode. It covers ops[start:end], where start is
// the previous run's end (0 for the first run).
type opRun uint32

func (r opRun) op() opcode { return opcode(r & codeMask) }
func (r opRun) end() int32 { return int32(r >> opcodeBits) }

// appendOp extends runs by the next op, which has opcode code and is
// op number end-1 of the plan: the last run grows if it has the same
// opcode, and a new run starts otherwise.
func appendOp(runs []opRun, code opcode, end int) []opRun {
	r := opRun(end)<<opcodeBits | opRun(code)
	if n := len(runs); n > 0 && runs[n-1].op() == code {
		runs[n-1] = r
		return runs
	}
	return append(runs, r)
}

// opcode selects the specialized evaluation path for a run of compiled
// gates. The dominant 2-input case stores both fanins inline in the op;
// only Mux and ≥3-input gates go through the fanin pool.
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
	numOpcodes
)

// evalOp is one compiled gate evaluation: out is the net it writes, and
// the meaning of a and b depends on its run's opcode (see the opcode
// constants).
type evalOp struct {
	out, a, b int32
}

// setRuns cuts ops into runs, given each op's opcode in plan order.
// It counts the runs first so that the run list is allocated once, at
// its exact size.
func (p *plan) setRuns(codes []opcode) {
	n := 0
	for i, code := range codes {
		if i == 0 || code != codes[i-1] {
			n++
		}
	}
	p.runs = make([]opRun, 0, n)
	for i, code := range codes {
		p.runs = appendOp(p.runs, code, i+1)
	}
}

// opInvalid marks gate types the compiler does not know.
const opInvalid = numOpcodes

// opcodeTable maps a gate type and its fanin count, capped at 3, to the
// gate's opcode, so compiling a gate takes no type switch.
var opcodeTable = func() (t [16][4]opcode) {
	for ty := range t {
		for n := range t[ty] {
			t[ty][n] = opcodeFor(netlist.GateType(ty), n)
		}
	}
	return t
}()

// opcodeOf returns g's opcode, or opInvalid for an unknown type.
func opcodeOf(g *netlist.Gate) opcode {
	if int(g.Type) >= len(opcodeTable) {
		return opInvalid
	}
	return opcodeTable[g.Type][min(len(g.Fanin), 3)]
}

// opcodeFor picks the opcode of a gate of type ty with n fanins (n = 3
// stands for three or more). Associative gates get the inline 2-input
// opcodes or the fanin-pool N-ary ones; degenerate arities collapse to
// constants or inverters, matching the identity element of the generic
// fold.
func opcodeFor(ty netlist.GateType, n int) opcode {
	var two, wide opcode
	inverted := false
	switch ty {
	case netlist.Input:
		return opInput
	case netlist.DFF:
		return opState
	case netlist.TieHi:
		return opTieHi
	case netlist.TieLo:
		return opTieLo
	case netlist.Buf, netlist.Output:
		return opBuf
	case netlist.Not:
		return opNot
	case netlist.Mux:
		return opMux
	case netlist.And:
		two, wide = opAnd2, opAndN
	case netlist.Nand:
		two, wide, inverted = opNand2, opNandN, true
	case netlist.Or:
		two, wide = opOr2, opOrN
	case netlist.Nor:
		two, wide, inverted = opNor2, opNorN, true
	case netlist.Xor:
		two, wide = opXor2, opXorN
	case netlist.Xnor:
		two, wide, inverted = opXnor2, opXnorN, true
	default:
		return opInvalid
	}
	switch n {
	case 0:
		// Fold identity: And()=1, Or()=Xor()=0; inversion flips it.
		if (two == opAnd2 || two == opNand2) != inverted {
			return opTieHi
		}
		return opTieLo
	case 1:
		if inverted {
			return opNot
		}
		return opBuf
	case 2:
		return two
	}
	return wide
}

// operands fills in the nets op reads for gate g compiled as code,
// appending to the fanin pool for Mux and N-ary ops. Nets are gate IDs,
// or slot[id] when slot is non-nil.
func (p *plan) operands(g *netlist.Gate, code opcode, op evalOp, slot []int32) evalOp {
	net := func(f netlist.GateID) int32 {
		if slot != nil {
			return slot[f]
		}
		return int32(f)
	}
	switch {
	case code <= opTieLo:
		// Sources read no net.
	case code <= opNot:
		op.a = net(g.Fanin[0])
	case code <= opXnor2:
		op.a, op.b = net(g.Fanin[0]), net(g.Fanin[1])
	default:
		op.a, op.b = int32(len(p.fanins)), int32(len(g.Fanin))
		for _, f := range g.Fanin {
			p.fanins = append(p.fanins, net(f))
		}
	}
	return op
}

// An opcode fits in opcodeBits bits. opRun packs a run's end above
// its opcode, and compileCircuit packs an op's level, and later its
// position, the same way.
const (
	opcodeBits = 5
	codeMask   = 1<<opcodeBits - 1
)

// compileCircuit compiles the live gates of c that keep marks (every
// live gate when keep is nil) into a levelized plan. order is c's
// topological order and dffs its DFFs(). Ops read and write net IDs;
// when slot is non-nil (length NumIDs), nets are instead renumbered
// densely, so that op i writes slot i, and on return slot[id] holds
// the slot of every compiled gate.
//
// The first pass over the gates finds each op's level and opcode. Two
// stable counting sorts, by opcode and then by level, turn those into
// each op's final position, and the second pass writes every op
// straight into it. Apart from one NumIDs-sized array, which holds the
// levels, then the sort's index and then the positions, the scratch is
// linear in the op count and the highest level.
func compileCircuit(c *netlist.Circuit, order, dffs []netlist.GateID, keep []bool, slot []int32) (plan, error) {
	level := slot
	if level == nil {
		level = make([]int32, c.NumIDs())
	}
	keys := make([]uint32, 0, len(order))
	var byCode [numOpcodes + 1]int32
	var maxLevel int32
	pool := 0
	for _, id := range order {
		if keep != nil && !keep[id] {
			continue
		}
		g := c.Gate(id)
		code := opcodeOf(g)
		if code == opInvalid {
			return plan{}, fmt.Errorf("sim: gate %d has unknown type %v", id, g.Type)
		}
		// A flip-flop's D pin is a sequential boundary, not a fanin.
		var lvl int32
		if code != opState {
			for _, f := range g.Fanin {
				lvl = max(lvl, level[f]+1)
			}
		}
		if code >= opMux {
			pool += len(g.Fanin)
		}
		level[id] = lvl
		maxLevel = max(maxLevel, lvl)
		keys = append(keys, uint32(lvl)<<opcodeBits|uint32(code))
		byCode[code+1]++
	}

	// Stable counting sort by opcode, then by level: idx lists the ops
	// by opcode, and walking it fills each level's range in opcode
	// order. keys[i] then holds op i's final position above its opcode.
	// The levels are all in keys now, so level's storage serves as idx.
	for k := 1; k < len(byCode); k++ {
		byCode[k] += byCode[k-1]
	}
	idx := level[:len(keys)]
	for i, k := range keys {
		idx[byCode[k&codeMask]] = int32(i)
		byCode[k&codeMask]++
	}
	byLevel := make([]int32, maxLevel+2)
	for _, k := range keys {
		byLevel[k>>opcodeBits+1]++
	}
	for l := 1; l < len(byLevel); l++ {
		byLevel[l] += byLevel[l-1]
	}
	for _, i := range idx {
		l := keys[i] >> opcodeBits
		keys[i] = uint32(byLevel[l])<<opcodeBits | keys[i]&codeMask
		byLevel[l]++
	}

	// The second pass visits the gates in the first pass's order, so
	// op i is the i'th gate it compiles. Fanins come first, so level[f]
	// already holds a fanin's position when its fanout needs its slot.
	p := plan{ops: make([]evalOp, len(keys)), fanins: make([]int32, 0, pool)}
	codes := make([]opcode, len(keys))
	i := 0
	for _, id := range order {
		if keep != nil && !keep[id] {
			continue
		}
		at, code := int32(keys[i]>>opcodeBits), opcode(keys[i]&codeMask)
		i++
		level[id] = at
		op := evalOp{out: int32(id)}
		if slot != nil {
			op.out = at
		}
		if code != opState {
			op = p.operands(c.Gate(id), code, op, slot)
		}
		p.ops[at], codes[at] = op, code
	}
	for i, id := range c.Inputs() {
		if keep == nil || keep[id] {
			p.ops[level[id]].a = int32(i)
		}
	}
	for i, id := range dffs {
		if keep == nil || keep[id] {
			p.ops[level[id]].a = int32(i)
		}
	}
	p.setRuns(codes)
	return p, nil
}

// observedPlan is Compare's compiled view of one circuit: a levelized
// plan over only the transitive fanin of what Compare observes, with
// the nets renumbered so that op i writes slot i of a dense buffer.
type observedPlan struct {
	plan
	// outs holds the slot of each primary output's value, in Outputs()
	// order.
	outs []int32
	// next holds the slot of each flip-flop's D pin, in DFFs() order;
	// it is nil unless flip-flop state is observed.
	next []int32
}

// compileObserved compiles the transitive fanin of c's primary outputs,
// plus the flip-flop D pins when observeState is set. TopoOrder still
// runs over the whole circuit, so a combinational cycle anywhere is
// rejected, observed or not.
func compileObserved(c *netlist.Circuit, dffs []netlist.GateID, observeState bool) (*observedPlan, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	// An Output gate is a buffer, so its driver is observed directly.
	roots := make([]netlist.GateID, 0, len(c.Outputs()))
	for _, o := range c.Outputs() {
		roots = append(roots, c.Gate(o).Fanin[0])
	}
	if observeState {
		for _, ff := range dffs {
			roots = append(roots, c.Gate(ff).Fanin[0])
		}
	}
	keep := make([]bool, c.NumIDs())
	for _, r := range roots {
		keep[r] = true
	}
	// Reverse topological order sees every gate before its fanins; a
	// flip-flop's D pin is not a combinational fanin of its Q.
	for i := len(order) - 1; i >= 0; i-- {
		g := c.Gate(order[i])
		if keep[order[i]] && g.Type != netlist.DFF {
			for _, f := range g.Fanin {
				keep[f] = true
			}
		}
	}
	slot := make([]int32, c.NumIDs())
	p, err := compileCircuit(c, order, dffs, keep, slot)
	if err != nil {
		return nil, err
	}
	o := &observedPlan{plan: p, outs: make([]int32, len(c.Outputs()))}
	for i := range o.outs {
		o.outs[i] = slot[roots[i]]
	}
	if observeState {
		o.next = make([]int32, len(roots)-len(o.outs))
		for i := range o.next {
			o.next[i] = slot[roots[len(o.outs)+i]]
		}
	}
	return o, nil
}
