// Package netlist provides the gate-level circuit intermediate
// representation used throughout the SplitLock reproduction: gates,
// nets, topological utilities, structural editing, and ISCAS .bench
// input/output.
//
// A Circuit is a directed graph of gates. Every gate drives exactly one
// net, identified by the gate's ID; fanin lists reference driver gate
// IDs. Primary inputs, TIE cells and flip-flop outputs act as
// combinational sources; primary outputs and flip-flop data pins act as
// combinational sinks.
package netlist

import (
	"fmt"
)

// GateType enumerates the supported cell functions.
type GateType uint8

// Gate types. Input and Output are pseudo-gates marking the circuit
// boundary. TieHi and TieLo are the constant-driver cells that carry the
// secret key bits in the SplitLock scheme.
const (
	Input GateType = iota
	Output
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Mux // fanin order: select, a (sel=0), b (sel=1)
	DFF // fanin order: d
	TieHi
	TieLo
	numGateTypes
)

var gateTypeNames = [numGateTypes]string{
	"INPUT", "OUTPUT", "BUF", "NOT", "AND", "NAND", "OR", "NOR",
	"XOR", "XNOR", "MUX", "DFF", "TIEHI", "TIELO",
}

// String returns the canonical upper-case name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// ParseGateType converts a canonical name (as produced by String) back
// to a GateType. The comparison is case-sensitive and expects upper
// case, matching the .bench convention.
func ParseGateType(s string) (GateType, bool) {
	for i, n := range gateTypeNames {
		if n == s {
			return GateType(i), true
		}
	}
	return 0, false
}

// IsSource reports whether the gate type is a combinational source
// (has no combinational fanin): primary inputs, TIE cells, and
// flip-flops (whose Q output is a pseudo-input to the combinational
// core).
func (t GateType) IsSource() bool {
	switch t {
	case Input, TieHi, TieLo, DFF:
		return true
	}
	return false
}

// IsTie reports whether the gate type is a constant-driver TIE cell.
func (t GateType) IsTie() bool { return t == TieHi || t == TieLo }

// arity returns the allowed fanin count range for a gate type.
// max < 0 means unbounded.
func (t GateType) arity() (min, max int) {
	switch t {
	case Input, TieHi, TieLo:
		return 0, 0
	case Output, Buf, Not, DFF:
		return 1, 1
	case And, Nand, Or, Nor:
		return 2, -1
	case Xor, Xnor:
		return 2, -1 // multi-input XOR/XNOR follow parity semantics
	case Mux:
		return 3, 3
	}
	return 0, -1
}

// GateID identifies a gate (and, equivalently, the net it drives)
// within a Circuit.
type GateID int32

// InvalidGate is the zero-information gate reference.
const InvalidGate GateID = -1

// Gate is a single cell instance. Fanin lists the driver gate IDs in
// pin order; change it only through SetFanin and the other editing
// methods, which keep the circuit's fanout lists in step. DontTouch
// marks gates the synthesis stage must not restructure (Fig. 3:
// set_dont_touch on TIE cells and key-nets). KeyInput marks an input
// pin position of a restore-circuitry gate that consumes a key bit;
// the metadata is used by the locking and attack packages.
type Gate struct {
	Name      string
	Type      GateType
	Fanin     []GateID
	DontTouch bool
	// KeyPin is the pin index on this gate that is fed by a TIE cell
	// carrying a key bit, or -1 when the gate is not a key-gate.
	KeyPin int
	dead   bool
}

// IsKeyGate reports whether the gate consumes a key bit on one of its
// input pins.
func (g *Gate) IsKeyGate() bool { return g.KeyPin >= 0 }

// Circuit is a mutable gate-level netlist.
type Circuit struct {
	Name string

	gates   []Gate
	inputs  []GateID
	outputs []GateID
	byName  map[string]GateID

	fanouts      [][]GateID
	fanoutsValid bool

	topo      []GateID
	topoValid bool

	// undo is the edit log of the open checkpoint, if any (see
	// Checkpoint).
	undo undoLog
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{
		Name:   name,
		byName: make(map[string]GateID),
	}
}

// NumGates returns the number of live gates, including the Input and
// Output pseudo-gates.
func (c *Circuit) NumGates() int {
	n := 0
	for i := range c.gates {
		if !c.gates[i].dead {
			n++
		}
	}
	return n
}

// NumIDs returns the size of the gate ID space (including dead slots).
// Valid IDs are in [0, NumIDs).
func (c *Circuit) NumIDs() int { return len(c.gates) }

// Gate returns the gate with the given ID. The pointer stays valid
// until the next AddGate call.
func (c *Circuit) Gate(id GateID) *Gate { return &c.gates[id] }

// Alive reports whether id refers to a live gate.
func (c *Circuit) Alive(id GateID) bool {
	return id >= 0 && int(id) < len(c.gates) && !c.gates[id].dead
}

// GateByName returns the ID of the named gate, or InvalidGate.
func (c *Circuit) GateByName(name string) GateID {
	if id, ok := c.byName[name]; ok && !c.gates[id].dead {
		return id
	}
	return InvalidGate
}

// Inputs returns the primary input gate IDs in declaration order.
// The returned slice must not be modified.
func (c *Circuit) Inputs() []GateID { return c.inputs }

// Outputs returns the primary output gate IDs in declaration order.
// The returned slice must not be modified.
func (c *Circuit) Outputs() []GateID { return c.outputs }

// DFFs returns the IDs of all flip-flop gates in ID order.
func (c *Circuit) DFFs() []GateID {
	var ffs []GateID
	for i := range c.gates {
		if !c.gates[i].dead && c.gates[i].Type == DFF {
			ffs = append(ffs, GateID(i))
		}
	}
	return ffs
}

// AddGate appends a gate and returns its ID. Fanin IDs must already
// exist. The name must be unique; an empty name is auto-generated.
func (c *Circuit) AddGate(name string, t GateType, fanin ...GateID) (GateID, error) {
	if name == "" {
		name = fmt.Sprintf("n%d", len(c.gates))
	}
	if _, dup := c.byName[name]; dup {
		return InvalidGate, fmt.Errorf("netlist: duplicate gate name %q", name)
	}
	lo, hi := t.arity()
	if len(fanin) < lo || (hi >= 0 && len(fanin) > hi) {
		return InvalidGate, fmt.Errorf("netlist: gate %q type %s: fanin count %d outside [%d,%d]", name, t, len(fanin), lo, hi)
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(c.gates) || c.gates[f].dead {
			return InvalidGate, fmt.Errorf("netlist: gate %q references unknown fanin %d", name, f)
		}
	}
	id := GateID(len(c.gates))
	c.gates = append(c.gates, Gate{
		Name:   name,
		Type:   t,
		Fanin:  append([]GateID(nil), fanin...),
		KeyPin: -1,
	})
	c.byName[name] = id
	switch t {
	case Input:
		c.inputs = append(c.inputs, id)
	case Output:
		c.outputs = append(c.outputs, id)
	}
	if c.undo.open {
		c.undo.log(undoEntry{kind: undoAdd, id: id})
	}
	if c.fanoutsValid {
		// The new gate has the highest ID, so it goes last in each
		// fanin's list, once per pin.
		c.fanouts = append(c.fanouts, nil)
		for _, f := range fanin {
			c.fanouts[f] = append(c.fanouts[f], id)
		}
	}
	c.topoValid = false
	return id, nil
}

// MustAdd is AddGate that panics on error; intended for generators and
// tests where the construction is known to be valid.
func (c *Circuit) MustAdd(name string, t GateType, fanin ...GateID) GateID {
	id, err := c.AddGate(name, t, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// AddInput declares a primary input.
func (c *Circuit) AddInput(name string) (GateID, error) { return c.AddGate(name, Input) }

// AddOutput declares a primary output driven by src.
func (c *Circuit) AddOutput(name string, src GateID) (GateID, error) {
	return c.AddGate(name, Output, src)
}

// Fanouts returns the sink gate IDs of the net driven by id, in
// ascending ID order. A sink appears once per pin it connects to. The
// result is owned by the circuit. The editing methods (AddGate,
// SetFanin, ReplaceFanin, RewireNet, Kill, SweepDead) keep built
// lists valid, patching each in place exactly as a rebuild would list
// it, so a Fanouts slice held across an edit may change under the
// caller.
func (c *Circuit) Fanouts(id GateID) []GateID {
	c.ensureFanouts()
	return c.fanouts[id]
}

// FanoutCount returns the number of sink pins on the net driven by id.
func (c *Circuit) FanoutCount(id GateID) int { return len(c.Fanouts(id)) }

func (c *Circuit) ensureFanouts() {
	if c.fanoutsValid {
		return
	}
	c.fanouts = make([][]GateID, len(c.gates))
	for i := range c.gates {
		if c.gates[i].dead {
			continue
		}
		for _, f := range c.gates[i].Fanin {
			c.fanouts[f] = append(c.fanouts[f], GateID(i))
		}
	}
	c.fanoutsValid = true
}

// Validate checks structural well-formedness: arity rules, live fanin
// references, output/DFF connectivity, and acyclicity of the
// combinational core. It returns the first problem found.
func (c *Circuit) Validate() error {
	for i := range c.gates {
		g := &c.gates[i]
		if g.dead {
			continue
		}
		lo, hi := g.Type.arity()
		if len(g.Fanin) < lo || (hi >= 0 && len(g.Fanin) > hi) {
			return fmt.Errorf("netlist: gate %q type %s: fanin count %d outside [%d,%d]", g.Name, g.Type, len(g.Fanin), lo, hi)
		}
		for _, f := range g.Fanin {
			if f < 0 || int(f) >= len(c.gates) || c.gates[f].dead {
				return fmt.Errorf("netlist: gate %q references dead or unknown fanin %d", g.Name, f)
			}
			if c.gates[f].Type == Output {
				return fmt.Errorf("netlist: gate %q uses OUTPUT pseudo-gate %q as a driver", g.Name, c.gates[f].Name)
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}
