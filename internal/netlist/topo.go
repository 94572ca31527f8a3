package netlist

import "fmt"

// combinationalFanin returns the fanin edges that constitute
// combinational dependencies. A DFF's data pin is a sequential
// boundary: the DFF output is a source and its fanin does not order it.
func (c *Circuit) combinationalFanin(id GateID) []GateID {
	g := &c.gates[id]
	if g.Type == DFF {
		return nil
	}
	return g.Fanin
}

// TopoOrder returns the live gates in a topological order of the
// combinational core: every gate appears after all of its combinational
// fanins. Sources (inputs, TIE cells, DFF outputs) appear first. An
// error is returned if the combinational core contains a cycle.
//
// The order is cached until the next structural edit; the returned
// slice is owned by the circuit and must not be modified. Like the
// other lazily cached accessors, the first call after an edit is not
// safe to race with other circuit reads — warm the cache before fanning
// out to simulation workers.
func (c *Circuit) TopoOrder() ([]GateID, error) {
	if c.topoValid {
		return c.topo, nil
	}
	n := len(c.gates)
	indeg := make([]int32, n)
	order := make([]GateID, 0, n)
	queue := make([]GateID, 0, n)
	for i := range c.gates {
		if c.gates[i].dead {
			continue
		}
		d := int32(len(c.combinationalFanin(GateID(i))))
		indeg[i] = d
		if d == 0 {
			queue = append(queue, GateID(i))
		}
	}
	c.ensureFanouts()
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range c.fanouts[id] {
			if c.gates[s].dead || c.gates[s].Type == DFF {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != c.NumGates() {
		return nil, fmt.Errorf("netlist: circuit %q has a combinational cycle (%d of %d gates ordered)", c.Name, len(order), c.NumGates())
	}
	c.topo = order
	c.topoValid = true
	return order, nil
}

// Levels returns per-gate logic depth: sources are level 0 and every
// other gate is 1 + max(fanin levels). Dead gates get level -1.
func (c *Circuit) Levels() ([]int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, len(c.gates))
	for i := range lvl {
		lvl[i] = -1
	}
	for _, id := range order {
		l := 0
		for _, f := range c.combinationalFanin(id) {
			if lvl[f]+1 > l {
				l = lvl[f] + 1
			}
		}
		lvl[id] = l
	}
	return lvl, nil
}

// Depth returns the maximum combinational level in the circuit.
func (c *Circuit) Depth() (int, error) {
	lvl, err := c.Levels()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, l := range lvl {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// TransitiveFanin returns the set of gates in the combinational fanin
// cone of root (root included). DFF outputs and inputs terminate the
// traversal.
func (c *Circuit) TransitiveFanin(root GateID) map[GateID]bool {
	cone := make(map[GateID]bool)
	stack := []GateID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cone[id] {
			continue
		}
		cone[id] = true
		for _, f := range c.combinationalFanin(id) {
			if !cone[f] {
				stack = append(stack, f)
			}
		}
	}
	return cone
}

// Support returns the combinational sources (inputs, TIE cells, DFF
// outputs) that root transitively depends on, in ascending ID order.
func (c *Circuit) Support(root GateID) []GateID {
	cone := c.TransitiveFanin(root)
	var sup []GateID
	for id := range cone {
		if c.gates[id].Type.IsSource() {
			sup = append(sup, id)
		}
	}
	sortGateIDs(sup)
	return sup
}

// BoundedCone returns the set of gates reachable backwards from root
// within the given depth, together with the frontier signals (gates
// outside the cone, or sources, that feed it). The frontier is the
// functional support of root relative to the cone and is returned in
// ascending ID order.
func (c *Circuit) BoundedCone(root GateID, depth int) (cone map[GateID]bool, frontier []GateID) {
	cone = make(map[GateID]bool)
	type item struct {
		id GateID
		d  int
	}
	stack := []item{{root, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cone[it.id] {
			continue
		}
		g := &c.gates[it.id]
		if g.Type.IsSource() || it.d >= depth {
			continue // frontier node, not part of the cone
		}
		cone[it.id] = true
		for _, f := range c.combinationalFanin(it.id) {
			stack = append(stack, item{f, it.d + 1})
		}
	}
	seen := make(map[GateID]bool)
	for id := range cone {
		for _, f := range c.combinationalFanin(id) {
			if !cone[f] && !seen[f] {
				seen[f] = true
				frontier = append(frontier, f)
			}
		}
	}
	if len(cone) == 0 {
		// Root itself is a source or depth is 0; its support is itself.
		frontier = append(frontier, root)
	}
	sortGateIDs(frontier)
	return cone, frontier
}

func sortGateIDs(ids []GateID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
