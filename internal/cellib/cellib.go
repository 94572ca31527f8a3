// Package cellib provides a compact standard-cell library modeled on
// the Nangate 45 nm OpenCell library used by the paper. Only relative
// area / power / delay values matter for the reproduced experiments
// (Fig. 5 reports percentages against an unprotected baseline), so the
// library stores representative X1-drive characteristics per gate
// function and scales them with fanin count.
package cellib

import (
	"math"

	"repro/internal/netlist"
)

// Physical constants of the row-based layout fabric (Nangate-flavoured).
const (
	// SiteWidth is the placement site width in micrometers.
	SiteWidth = 0.19
	// RowHeight is the standard cell row height in micrometers.
	RowHeight = 1.4
	// WireCapPerSite is the routing capacitance in fF per site-length
	// of wire (used by the power and delay models).
	WireCapPerSite = 0.02
	// WireResPerSite is the routing resistance in kOhm per site-length.
	WireResPerSite = 0.0004
	// ViaDelay is the incremental delay in ps per via in a stack.
	ViaDelay = 0.15
)

// Cell describes one library cell variant.
type Cell struct {
	Name string
	// Area is the cell area in um^2.
	Area float64
	// InputCap is the capacitance of each input pin in fF.
	InputCap float64
	// Drive is the output resistance in kOhm; delay grows with
	// Drive * load.
	Drive float64
	// Intrinsic is the unloaded cell delay in ps.
	Intrinsic float64
	// Leakage is the leakage power in nW.
	Leakage float64
	// InternalEnergy is the internal switching energy in fJ per output
	// transition.
	InternalEnergy float64
	// MaxLoad is the maximum capacitance in fF the output may drive.
	// The proximity attack uses this as its load constraint.
	MaxLoad float64
	// Unconstrained marks cells whose output is a static level (TIE
	// cells): the paper's Theorem 1 notes load constraints do not
	// apply to them.
	Unconstrained bool
}

// base characteristics per gate function at two inputs (or the natural
// pin count), loosely following Nangate 45 nm X1 cells.
var base = map[netlist.GateType]Cell{
	netlist.Buf:   {Name: "BUF_X1", Area: 0.798, InputCap: 1.6, Drive: 1.2, Intrinsic: 12, Leakage: 18, InternalEnergy: 0.8, MaxLoad: 60},
	netlist.Not:   {Name: "INV_X1", Area: 0.532, InputCap: 1.6, Drive: 1.1, Intrinsic: 6, Leakage: 14, InternalEnergy: 0.5, MaxLoad: 55},
	netlist.And:   {Name: "AND2_X1", Area: 1.064, InputCap: 1.5, Drive: 1.3, Intrinsic: 14, Leakage: 25, InternalEnergy: 1.0, MaxLoad: 55},
	netlist.Nand:  {Name: "NAND2_X1", Area: 0.798, InputCap: 1.6, Drive: 1.2, Intrinsic: 9, Leakage: 20, InternalEnergy: 0.7, MaxLoad: 55},
	netlist.Or:    {Name: "OR2_X1", Area: 1.064, InputCap: 1.5, Drive: 1.3, Intrinsic: 15, Leakage: 26, InternalEnergy: 1.0, MaxLoad: 55},
	netlist.Nor:   {Name: "NOR2_X1", Area: 0.798, InputCap: 1.7, Drive: 1.4, Intrinsic: 10, Leakage: 21, InternalEnergy: 0.7, MaxLoad: 50},
	netlist.Xor:   {Name: "XOR2_X1", Area: 1.596, InputCap: 2.1, Drive: 1.5, Intrinsic: 18, Leakage: 38, InternalEnergy: 1.6, MaxLoad: 50},
	netlist.Xnor:  {Name: "XNOR2_X1", Area: 1.596, InputCap: 2.1, Drive: 1.5, Intrinsic: 18, Leakage: 38, InternalEnergy: 1.6, MaxLoad: 50},
	netlist.Mux:   {Name: "MUX2_X1", Area: 1.862, InputCap: 1.9, Drive: 1.4, Intrinsic: 20, Leakage: 42, InternalEnergy: 1.8, MaxLoad: 50},
	netlist.DFF:   {Name: "DFF_X1", Area: 4.522, InputCap: 1.8, Drive: 1.3, Intrinsic: 28, Leakage: 95, InternalEnergy: 3.4, MaxLoad: 55},
	netlist.TieHi: {Name: "LOGIC1_X1", Area: 0.266, InputCap: 0, Drive: 0, Intrinsic: 0, Leakage: 4, InternalEnergy: 0, MaxLoad: math.MaxFloat64, Unconstrained: true},
	netlist.TieLo: {Name: "LOGIC0_X1", Area: 0.266, InputCap: 0, Drive: 0, Intrinsic: 0, Leakage: 4, InternalEnergy: 0, MaxLoad: math.MaxFloat64, Unconstrained: true},
	// Pseudo-gates occupy no silicon; inputs/outputs are pads handled
	// outside the core area model.
	netlist.Input:  {Name: "PI", MaxLoad: math.MaxFloat64, Unconstrained: false, Drive: 0.8, InputCap: 0},
	netlist.Output: {Name: "PO", InputCap: 1.0},
}

// extraPinArea is the incremental area in um^2 per fanin beyond two for
// multi-input AND/OR/NAND/NOR/XOR/XNOR trees.
const extraPinArea = 0.266

// ForGate returns the library cell for a gate type with the given
// fanin count. Multi-input logic gates scale area, delay and input cap
// mildly with fanin, mirroring NAND3/NAND4 variants.
func ForGate(t netlist.GateType, fanin int) Cell {
	c, ok := base[t]
	if !ok {
		return Cell{Name: "UNKNOWN"}
	}
	switch t {
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
		if fanin > 2 {
			extra := float64(fanin - 2)
			c.Area += extraPinArea * extra
			c.Intrinsic += 2.5 * extra
			c.Leakage += 5 * extra
			c.InternalEnergy += 0.2 * extra
		}
	}
	return c
}

// GateDelay returns the loaded delay of the cell in ps given a total
// output load in fF.
func (c Cell) GateDelay(loadFF float64) float64 {
	return c.Intrinsic + c.Drive*loadFF
}

// Area returns the total cell area in um^2 of all live gates in the
// circuit, excluding I/O pseudo-gates.
func Area(c *netlist.Circuit) float64 {
	total := 0.0
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		g := c.Gate(id)
		if g.Type == netlist.Input || g.Type == netlist.Output {
			continue
		}
		total += ForGate(g.Type, len(g.Fanin)).Area
	}
	return total
}

// FanoutCap returns the total input-pin capacitance in fF presented by
// the sinks of the net driven by id (wire capacitance excluded; the
// layout stage adds it).
func FanoutCap(c *netlist.Circuit, id netlist.GateID) float64 {
	total := 0.0
	for _, s := range c.Fanouts(id) {
		g := c.Gate(s)
		total += ForGate(g.Type, len(g.Fanin)).InputCap
	}
	return total
}
