package netlist

import (
	"fmt"
	"slices"
)

// Clone returns a deep copy of the circuit. Gate IDs are preserved.
func (c *Circuit) Clone() *Circuit {
	nc := &Circuit{
		Name:    c.Name,
		gates:   make([]Gate, len(c.gates)),
		inputs:  append([]GateID(nil), c.inputs...),
		outputs: append([]GateID(nil), c.outputs...),
		byName:  make(map[string]GateID, len(c.byName)),
	}
	for i := range c.gates {
		g := c.gates[i]
		g.Fanin = append([]GateID(nil), g.Fanin...)
		nc.gates[i] = g
	}
	for name, id := range c.byName {
		nc.byName[name] = id
	}
	return nc
}

// ReplaceFanin rewires every pin of gate id that currently reads from
// old so that it reads from new. It returns the number of pins changed.
func (c *Circuit) ReplaceFanin(id, old, new GateID) int {
	n := 0
	for i, f := range c.gates[id].Fanin {
		if f == old {
			c.setPin(id, i, new)
			n++
		}
	}
	return n
}

// SetFanin rewires a single pin of gate id.
func (c *Circuit) SetFanin(id GateID, pin int, driver GateID) error {
	if pin < 0 || pin >= len(c.gates[id].Fanin) {
		return fmt.Errorf("netlist: gate %q has no pin %d", c.gates[id].Name, pin)
	}
	c.setPin(id, pin, driver)
	return nil
}

// setPin points one pin of gate id at driver, moving id from the old
// driver's fanout list to the new one's. Under a checkpoint it logs the
// edit.
func (c *Circuit) setPin(id GateID, pin int, driver GateID) {
	g := &c.gates[id]
	old := g.Fanin[pin]
	g.Fanin[pin] = driver
	if c.undo.open {
		c.undo.log(undoEntry{kind: undoPin, id: id, pos: int32(pin), old: old})
	}
	if c.fanoutsValid && !g.dead {
		c.fanouts[old] = removeSink(c.fanouts[old], id)
		c.fanouts[driver] = insertSink(c.fanouts[driver], id)
	}
	c.topoValid = false
}

// RewireNet redirects every sink of the net driven by old to read from
// new instead. It returns the number of pins moved.
func (c *Circuit) RewireNet(old, new GateID) int {
	c.ensureFanouts()
	moved := 0
	for _, s := range append([]GateID(nil), c.fanouts[old]...) {
		moved += c.ReplaceFanin(s, old, new)
	}
	return moved
}

// Kill marks a gate dead. Sinks still referencing it will fail
// Validate; callers must rewire first. Inputs and outputs are removed
// from the boundary lists.
func (c *Circuit) Kill(id GateID) {
	g := &c.gates[id]
	if g.dead {
		return
	}
	g.dead = true
	delete(c.byName, g.Name)
	pos := -1
	switch g.Type {
	case Input:
		pos = slices.Index(c.inputs, id)
		c.inputs = removeID(c.inputs, id)
	case Output:
		pos = slices.Index(c.outputs, id)
		c.outputs = removeID(c.outputs, id)
	}
	if c.undo.open {
		c.undo.log(undoEntry{kind: undoKill, id: id, pos: int32(pos)})
	}
	if c.fanoutsValid {
		for _, f := range g.Fanin {
			c.fanouts[f] = removeSink(c.fanouts[f], id)
		}
	}
	c.topoValid = false
}

func removeID(ids []GateID, id GateID) []GateID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// SweepDead removes gates that cannot reach any primary output, either
// combinationally or through flip-flops. Primary inputs and DontTouch
// gates are always kept. It returns the number of gates removed.
func (c *Circuit) SweepDead() int {
	dead := c.DeadGates()
	for _, id := range dead {
		c.Kill(id)
	}
	return len(dead)
}

// DeadGates lists, in ascending ID order, the live gates SweepDead
// would remove: those from which no primary output, primary input or
// DontTouch gate is reachable through fanout edges, flip-flops
// included.
func (c *Circuit) DeadGates() []GateID {
	live := make([]bool, len(c.gates))
	var stack []GateID
	mark := func(id GateID) {
		if !live[id] {
			live[id] = true
			stack = append(stack, id)
		}
	}
	for _, o := range c.outputs {
		mark(o)
	}
	for i := range c.gates {
		if !c.gates[i].dead && (c.gates[i].Type == Input || c.gates[i].DontTouch) {
			mark(GateID(i))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.gates[id].Fanin {
			mark(f)
		}
	}
	var dead []GateID
	for i := range c.gates {
		if !c.gates[i].dead && !live[i] {
			dead = append(dead, GateID(i))
		}
	}
	return dead
}
