package netlist

import "slices"

// Checkpoint opens an undoable edit. Until Commit or Rollback, the
// editing methods (AddGate, SetFanin, ReplaceFanin, RewireNet, Kill,
// SweepDead) log what they change, and Rollback puts the
// circuit back exactly as it was at the checkpoint: gate IDs, names,
// fanins, boundary lists, fanout lists and the cached topological
// order. A trial edit therefore costs what it touches, not a Clone.
//
// Under a checkpoint the edits also keep valid fanout lists valid,
// patching each in place in ascending sink-ID order, exactly as a
// rebuild would list it, instead of invalidating them. A Fanouts slice
// held across such an edit may change under the caller. Direct writes
// to a Gate's fields are not logged: they are allowed only on gates
// added since the checkpoint (Rollback drops those), and Fanin writes
// still need Invalidate. Rename panics under a checkpoint, and so does
// a second Checkpoint.
func (c *Circuit) Checkpoint() {
	if c.undo.open {
		panic("netlist: checkpoint already open")
	}
	c.undo.open = true
	c.undo.entries = c.undo.entries[:0]
	c.undo.topo, c.undo.topoValid = c.topo, c.topoValid
}

// Commit closes the open checkpoint and keeps its edits.
func (c *Circuit) Commit() {
	if !c.undo.open {
		panic("netlist: commit without a checkpoint")
	}
	c.undo.open = false
	c.undo.topo = nil
}

// Rollback closes the open checkpoint and reverts every edit made
// since it was opened, newest first.
func (c *Circuit) Rollback() {
	if !c.undo.open {
		panic("netlist: rollback without a checkpoint")
	}
	c.undo.open = false
	fan := c.fanoutsValid
	for i := len(c.undo.entries) - 1; i >= 0; i-- {
		e := c.undo.entries[i]
		g := &c.gates[e.id]
		switch e.kind {
		case undoAdd:
			if fan {
				for _, f := range g.Fanin {
					c.fanouts[f] = removeSink(c.fanouts[f], e.id)
				}
				c.fanouts = c.fanouts[:e.id]
			}
			delete(c.byName, g.Name)
			switch g.Type {
			case Input:
				c.inputs = c.inputs[:len(c.inputs)-1]
			case Output:
				c.outputs = c.outputs[:len(c.outputs)-1]
			}
			c.gates = c.gates[:e.id]
		case undoPin:
			cur := g.Fanin[e.pos]
			g.Fanin[e.pos] = e.old
			if fan && !g.dead {
				c.fanouts[cur] = removeSink(c.fanouts[cur], e.id)
				c.fanouts[e.old] = insertSink(c.fanouts[e.old], e.id)
			}
		case undoKill:
			g.dead = false
			c.byName[g.Name] = e.id
			switch g.Type {
			case Input:
				c.inputs = slices.Insert(c.inputs, int(e.pos), e.id)
			case Output:
				c.outputs = slices.Insert(c.outputs, int(e.pos), e.id)
			}
			if fan {
				for _, f := range g.Fanin {
					c.fanouts[f] = insertSink(c.fanouts[f], e.id)
				}
			}
		}
	}
	c.topo, c.topoValid = c.undo.topo, c.undo.topoValid
	c.undo.topo = nil
}

// undoLog is the edit log of an open checkpoint.
type undoLog struct {
	open    bool
	entries []undoEntry
	// topo and topoValid are the cached topological order at the
	// checkpoint, which Rollback restores.
	topo      []GateID
	topoValid bool
}

func (u *undoLog) log(e undoEntry) { u.entries = append(u.entries, e) }

type undoKind uint8

const (
	undoAdd  undoKind = iota // gate id was appended
	undoPin                  // pin pos of gate id read old
	undoKill                 // gate id was killed; pos is its boundary-list index, or -1
)

// undoEntry records one edit, with what Rollback needs to revert it.
type undoEntry struct {
	kind undoKind
	id   GateID
	pos  int32
	old  GateID
}

// insertSink adds one pin of sink id to a fanout list, keeping the
// list in ascending ID order.
func insertSink(list []GateID, id GateID) []GateID {
	i, _ := slices.BinarySearch(list, id)
	return slices.Insert(list, i, id)
}

// removeSink removes one pin of sink id from a fanout list.
func removeSink(list []GateID, id GateID) []GateID {
	i, ok := slices.BinarySearch(list, id)
	if !ok {
		panic("netlist: fanout list is missing a sink")
	}
	return slices.Delete(list, i, i+1)
}
