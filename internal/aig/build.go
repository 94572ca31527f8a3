package aig

import (
	"fmt"

	"repro/internal/netlist"
)

// LitMap maps netlist GateIDs to graph literals as a dense slice
// indexed by GateID; dead slots hold Invalid. Output pseudo-gates map
// to their driver's literal and DFF gates to their Q leaf.
type LitMap []Lit

// Builder appends netlist circuits into one shared Graph. Leaves
// (primary inputs and flip-flop outputs) are shared by name, so two
// circuits added to the same builder strash against each other —
// identical cones become identical literals without any proving.
type Builder struct {
	g          *Graph
	leafByName map[string]Lit
	leafNames  []string
	forced     map[string]bool
}

// NewBuilder returns a builder over a fresh graph.
func NewBuilder() *Builder {
	return &Builder{
		g:          New(),
		leafByName: make(map[string]Lit),
	}
}

// Graph returns the underlying graph.
func (b *Builder) Graph() *Graph { return b.g }

// Leaf returns the leaf literal for a name, creating it on first use.
func (b *Builder) Leaf(name string) Lit {
	if l, ok := b.leafByName[name]; ok {
		return l
	}
	l := b.g.AddLeaf()
	b.leafByName[name] = l
	b.leafNames = append(b.leafNames, name)
	return l
}

// LeafName returns the name of leaf index i.
func (b *Builder) LeafName(i int) string { return b.leafNames[i] }

// LeafByName returns the leaf literal registered under name, if any.
func (b *Builder) LeafByName(name string) (Lit, bool) {
	l, ok := b.leafByName[name]
	return l, ok
}

// ForceLeaf registers a gate name that must become a free leaf even
// when the gate is a constant TIE cell. The SAT attack uses this to
// model key-carrying TIE cells as unknowns.
func (b *Builder) ForceLeaf(name string) {
	if b.forced == nil {
		b.forced = make(map[string]bool)
	}
	b.forced[name] = true
}

// Add rewrites circuit c into the graph and returns the literal of
// every live net. Primary inputs and flip-flop outputs become leaves
// keyed by gate name (shared across Add calls); TIE cells fold to
// constants unless their name was registered with ForceLeaf.
func (b *Builder) Add(c *netlist.Circuit) (LitMap, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	g := b.g
	m := make(LitMap, c.NumIDs())
	for i := range m {
		m[i] = Invalid
	}
	for _, id := range order {
		gt := c.Gate(id)
		switch gt.Type {
		case netlist.Input, netlist.DFF:
			m[id] = b.Leaf(gt.Name)
		case netlist.TieHi:
			if b.forced[gt.Name] {
				m[id] = b.Leaf(gt.Name)
			} else {
				m[id] = True
			}
		case netlist.TieLo:
			if b.forced[gt.Name] {
				m[id] = b.Leaf(gt.Name)
			} else {
				m[id] = False
			}
		case netlist.Buf, netlist.Output:
			m[id] = m[gt.Fanin[0]]
		case netlist.Not:
			m[id] = m[gt.Fanin[0]].Not()
		case netlist.And, netlist.Nand:
			acc := m[gt.Fanin[0]]
			for _, f := range gt.Fanin[1:] {
				acc = g.And(acc, m[f])
			}
			if gt.Type == netlist.Nand {
				acc = acc.Not()
			}
			m[id] = acc
		case netlist.Or, netlist.Nor:
			acc := m[gt.Fanin[0]]
			for _, f := range gt.Fanin[1:] {
				acc = g.Or(acc, m[f])
			}
			if gt.Type == netlist.Nor {
				acc = acc.Not()
			}
			m[id] = acc
		case netlist.Xor, netlist.Xnor:
			acc := m[gt.Fanin[0]]
			for _, f := range gt.Fanin[1:] {
				acc = g.Xor(acc, m[f])
			}
			if gt.Type == netlist.Xnor {
				acc = acc.Not()
			}
			m[id] = acc
		case netlist.Mux:
			m[id] = g.Mux(m[gt.Fanin[0]], m[gt.Fanin[1]], m[gt.Fanin[2]])
		default:
			return nil, fmt.Errorf("aig: cannot convert gate type %v", gt.Type)
		}
	}
	return m, nil
}

// FromCircuit rewrites one circuit into a fresh graph.
func FromCircuit(c *netlist.Circuit) (*Graph, LitMap, error) {
	b := NewBuilder()
	m, err := b.Add(c)
	if err != nil {
		return nil, nil, err
	}
	return b.g, m, nil
}

// ToCircuit exports the graph back into an AND/NOT netlist with the
// same interface as ref (input, output, and flip-flop names and order),
// whose LitMap m locates the observable cones. Internal nodes become
// two-input AND gates; complemented edges materialize as NOT gates.
// The result is the structural round-trip used by the metamorphic LEC
// tests and is functionally equivalent to ref.
func ToCircuit(g *Graph, ref *netlist.Circuit, m LitMap, name string) (*netlist.Circuit, error) {
	out := netlist.New(name)
	gateOf := make(map[int]netlist.GateID) // node -> uncomplemented driver
	notOf := make(map[int]netlist.GateID)  // node -> complemented driver
	dffOf := make(map[netlist.GateID]netlist.GateID)
	// Interface leaves first, in ref declaration order.
	for _, id := range ref.Inputs() {
		in, err := out.AddInput(ref.Gate(id).Name)
		if err != nil {
			return nil, err
		}
		if l := m[id]; l != Invalid {
			gateOf[l.Node()] = in
		}
	}
	// DFF gates need a fanin at creation time; point them at a
	// temporary source and rewire the D pins once the cones exist.
	var tmp netlist.GateID = netlist.InvalidGate
	if len(ref.DFFs()) > 0 {
		t, err := out.AddGate("aig_tmp", netlist.TieLo)
		if err != nil {
			return nil, err
		}
		tmp = t
	}
	for _, id := range ref.DFFs() {
		ff, err := out.AddGate(ref.Gate(id).Name, netlist.DFF, tmp)
		if err != nil {
			return nil, err
		}
		dffOf[id] = ff
		if l := m[id]; l != Invalid {
			gateOf[l.Node()] = ff
		}
	}
	// Required nodes: cones of every observable literal.
	var roots []Lit
	for _, o := range ref.Outputs() {
		roots = append(roots, m[o])
	}
	for _, ff := range ref.DFFs() {
		roots = append(roots, m[ref.Gate(ff).Fanin[0]])
	}
	need := g.Cone(roots...)
	// litGate materializes the driver of a literal, creating NOT gates
	// for complemented references and TIE cells for constants on demand.
	litGate := func(l Lit) (netlist.GateID, error) {
		n := l.Node()
		if _, ok := gateOf[n]; !ok && n == 0 {
			t, err := out.AddGate("aig_const0", netlist.TieLo)
			if err != nil {
				return netlist.InvalidGate, err
			}
			gateOf[0] = t
		}
		base, ok := gateOf[n]
		if !ok {
			return netlist.InvalidGate, fmt.Errorf("aig: node %d referenced before definition", n)
		}
		if !l.IsCompl() {
			return base, nil
		}
		if inv, ok := notOf[n]; ok {
			return inv, nil
		}
		inv, err := out.AddGate(fmt.Sprintf("aig_not%d", n), netlist.Not, base)
		if err != nil {
			return netlist.InvalidGate, err
		}
		notOf[n] = inv
		return inv, nil
	}
	for n := 1; n < g.NumNodes(); n++ {
		if !need[n] || !g.IsAnd(n) {
			continue
		}
		f0, f1 := g.Fanins(n)
		a, err := litGate(f0)
		if err != nil {
			return nil, err
		}
		b, err := litGate(f1)
		if err != nil {
			return nil, err
		}
		id, err := out.AddGate(fmt.Sprintf("aig_and%d", n), netlist.And, a, b)
		if err != nil {
			return nil, err
		}
		gateOf[n] = id
	}
	for _, o := range ref.Outputs() {
		src, err := litGate(m[o])
		if err != nil {
			return nil, err
		}
		if _, err := out.AddOutput(ref.Gate(o).Name, src); err != nil {
			return nil, err
		}
	}
	for _, ff := range ref.DFFs() {
		src, err := litGate(m[ref.Gate(ff).Fanin[0]])
		if err != nil {
			return nil, err
		}
		if err := out.SetFanin(dffOf[ff], 0, src); err != nil {
			return nil, err
		}
	}
	if tmp != netlist.InvalidGate {
		out.Kill(tmp) // every D pin has been rewired off the placeholder
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("aig: exported netlist invalid: %w", err)
	}
	return out, nil
}
