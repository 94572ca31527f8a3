// Package partition implements the random, balanced hierarchical
// netlist partitioning of the Fig. 3 synthesis stage. Partitioning lets
// the flow enumerate stuck-at faults per module independently (parallel
// processing) and guarantees that every part of the design receives
// protection.
package partition

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Module is one partition: a set of gate IDs eligible for locking.
type Module struct {
	ID    int
	Gates []netlist.GateID
}

// RandomBalanced splits the internal combinational gates of the circuit
// into k modules of near-equal size, assigning gates uniformly at
// random (deterministically under seed). TIE cells, I/O pseudo-gates,
// flip-flops and DontTouch gates are excluded.
func RandomBalanced(c *netlist.Circuit, k int, seed uint64) ([]Module, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: k must be positive, got %d", k)
	}
	var eligible []netlist.GateID
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		g := c.Gate(id)
		if g.DontTouch || g.Type.IsSource() || g.Type == netlist.Output {
			continue
		}
		eligible = append(eligible, id)
	}
	if len(eligible) < k {
		k = len(eligible)
	}
	mods := make([]Module, k)
	for i := range mods {
		mods[i].ID = i
	}
	if k == 0 {
		return mods, nil
	}
	rng := sim.NewRand(seed)
	perm := rng.Perm(len(eligible))
	for i, pi := range perm {
		m := i % k
		mods[m].Gates = append(mods[m].Gates, eligible[pi])
	}
	return mods, nil
}
