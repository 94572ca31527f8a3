// Package place implements the placement stage of the Fig. 3 layout
// flow: constructive level-ordered initial placement, iterative
// wirelength-driven improvement, and — the security-critical step —
// uniform randomization and fixing of TIE cells so their positions
// carry no information about which key-gate they drive.
//
// Mirroring the paper's protocol, TIE cells are "detached" during
// placement: the improvement passes never consider TIE-cell
// connectivity, so the optimizer cannot pull a TIE cell toward its
// key-gate (which would re-create the proximity hint of Fig. 2(a)).
package place

import (
	"fmt"
	"math"

	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Options configures placement.
type Options struct {
	// Utilization sizes the die (default 0.7, reduced automatically if
	// the netlist does not fit).
	Utilization float64
	// Seed drives initial ordering, TIE randomization and improvement.
	Seed uint64
	// RandomizeTies places TIE cells uniformly at random and fixes
	// them (the paper's defense). With it disabled the optimizer
	// treats TIE cells like any other cell — the naïve layout of
	// Fig. 2(a), kept for the ablation study.
	RandomizeTies bool
}

func (o Options) withDefaults() Options {
	if o.Utilization <= 0 || o.Utilization > 1 {
		o.Utilization = 0.7
	}
	return o
}

// passes is the number of improvement sweeps over all movable cells.
const passes = 3

// Place produces a legal placement of every live gate. Primary inputs
// and outputs become boundary pads (left and right edges).
func Place(c *netlist.Circuit, opt Options) (*layout.Layout, error) {
	return place(c, opt, passes)
}

// place is Place with the number of improvement sweeps as a parameter,
// so tests can vary it.
func place(c *netlist.Circuit, opt Options, passes int) (*layout.Layout, error) {
	opt = opt.withDefaults()
	var core []netlist.GateID
	var ins, outs []netlist.GateID
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		switch c.Gate(id).Type {
		case netlist.Input:
			ins = append(ins, id)
		case netlist.Output:
			outs = append(outs, id)
		default:
			core = append(core, id)
		}
	}
	n := len(core)
	if n == 0 {
		return nil, fmt.Errorf("place: no core cells to place")
	}
	side := int(math.Ceil(math.Sqrt(float64(n) / opt.Utilization)))
	if side < 2 {
		side = 2
	}
	lay := layout.NewLayout(c, side, side, opt.Utilization)

	rng := sim.NewRand(opt.Seed ^ 0x91ace)
	lvl, err := c.Levels()
	if err != nil {
		return nil, err
	}
	maxLvl := 0
	for _, l := range lvl {
		if l > maxLvl {
			maxLvl = l
		}
	}

	// Separate TIE cells when randomizing: they are placed uniformly
	// and fixed, everything else is placed constructively by level.
	var ties, movable []netlist.GateID
	for _, id := range core {
		if opt.RandomizeTies && c.Gate(id).Type.IsTie() {
			ties = append(ties, id)
		} else {
			movable = append(movable, id)
		}
	}
	for _, id := range ties {
		p, err := randomFreeSlot(lay, rng)
		if err != nil {
			return nil, err
		}
		if err := lay.Place(id, p, false); err != nil {
			return nil, err
		}
		lay.Cells[id].Fixed = true
	}

	// Constructive placement: X proportional to logic level (inputs on
	// the left, outputs on the right), Y scattered. This gives the
	// data-flow locality commercial placers produce.
	for _, id := range movable {
		x := 0
		if maxLvl > 0 {
			x = lvl[id] * (lay.W - 1) / maxLvl
		}
		p := layout.Point{X: x, Y: rng.Intn(lay.H)}
		p = nearestFree(lay, p)
		if err := lay.Place(id, p, false); err != nil {
			return nil, err
		}
	}

	// Boundary pads.
	for i, id := range ins {
		y := 0
		if len(ins) > 1 {
			y = i * (lay.H - 1) / (len(ins) - 1)
		}
		if err := lay.Place(id, layout.Point{X: -1, Y: y}, true); err != nil {
			return nil, err
		}
	}
	for i, id := range outs {
		y := 0
		if len(outs) > 1 {
			y = i * (lay.H - 1) / (len(outs) - 1)
		}
		if err := lay.Place(id, layout.Point{X: lay.W, Y: y}, true); err != nil {
			return nil, err
		}
	}

	improve(c, lay, movable, opt, passes, rng)
	return lay, nil
}

// improve runs centroid-driven improvement sweeps: each movable cell is
// pulled toward the centroid of its connected cells; the move is kept
// when it reduces the summed HPWL of the touched nets. TIE-cell
// connections are ignored ("detached") so randomized TIE cells exert no
// pull.
func improve(c *netlist.Circuit, lay *layout.Layout, movable []netlist.GateID, opt Options, passes int, rng *sim.Rand) {
	for pass := 0; pass < passes; pass++ {
		perm := rng.Perm(len(movable))
		for _, pi := range perm {
			id := movable[pi]
			cx, cy, cnt := 0, 0, 0
			add := func(other netlist.GateID) {
				if other == id || !lay.Cells[other].Placed {
					return
				}
				if opt.RandomizeTies && c.Gate(other).Type.IsTie() {
					return // detached: no pull from TIE cells
				}
				p := lay.Cells[other].Pos
				cx += clamp(p.X, 0, lay.W-1)
				cy += clamp(p.Y, 0, lay.H-1)
				cnt++
			}
			for _, f := range c.Gate(id).Fanin {
				add(f)
			}
			for _, s := range c.Fanouts(id) {
				add(s)
			}
			if cnt == 0 {
				continue
			}
			target := layout.Point{X: cx / cnt, Y: cy / cnt}
			cur := lay.Pos(id)
			if target == cur {
				continue
			}
			before := localCost(c, lay, id)
			moved := false
			// Prefer a free slot at or near the centroid.
			if q, ok := freeNear(lay, target, 3); ok {
				if err := lay.Move(id, q); err == nil {
					if localCost(c, lay, id) < before {
						moved = true
					} else if err := lay.Move(id, cur); err != nil {
						panic("place: revert failed: " + err.Error())
					}
				}
			}
			if moved {
				continue
			}
			occupant := lay.At(target)
			if occupant != netlist.InvalidGate && occupant != id &&
				!lay.Cells[occupant].Fixed && !lay.Cells[occupant].Pad {
				beforeBoth := before + localCost(c, lay, occupant)
				if err := lay.Swap(id, occupant); err != nil {
					continue
				}
				if localCost(c, lay, id)+localCost(c, lay, occupant) >= beforeBoth {
					if err := lay.Swap(id, occupant); err != nil {
						panic("place: revert swap failed: " + err.Error())
					}
				}
			}
		}
	}
}

// localCost sums the HPWL of every net touching the gate.
func localCost(c *netlist.Circuit, lay *layout.Layout, id netlist.GateID) int {
	cost := lay.NetHPWL(id)
	for _, f := range c.Gate(id).Fanin {
		cost += lay.NetHPWL(f)
	}
	return cost
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// freeNear returns a free slot at p or within the given spiral radius.
func freeNear(lay *layout.Layout, p layout.Point, radius int) (layout.Point, bool) {
	p.X = clamp(p.X, 0, lay.W-1)
	p.Y = clamp(p.Y, 0, lay.H-1)
	if lay.At(p) == netlist.InvalidGate {
		return p, true
	}
	for r := 1; r <= radius; r++ {
		for dx := -r; dx <= r; dx++ {
			dy := r - abs(dx)
			for _, q := range [2]layout.Point{{X: p.X + dx, Y: p.Y + dy}, {X: p.X + dx, Y: p.Y - dy}} {
				if q.X >= 0 && q.X < lay.W && q.Y >= 0 && q.Y < lay.H && lay.At(q) == netlist.InvalidGate {
					return q, true
				}
			}
		}
	}
	return layout.Point{}, false
}

func randomFreeSlot(lay *layout.Layout, rng *sim.Rand) (layout.Point, error) {
	for tries := 0; tries < 10000; tries++ {
		p := layout.Point{X: rng.Intn(lay.W), Y: rng.Intn(lay.H)}
		if lay.At(p) == netlist.InvalidGate {
			return p, nil
		}
	}
	return layout.Point{}, fmt.Errorf("place: no free slot found")
}

// nearestFree spirals outward from p to the first free slot.
func nearestFree(lay *layout.Layout, p layout.Point) layout.Point {
	p.X = clamp(p.X, 0, lay.W-1)
	p.Y = clamp(p.Y, 0, lay.H-1)
	if lay.At(p) == netlist.InvalidGate {
		return p
	}
	for r := 1; r < lay.W+lay.H; r++ {
		for dx := -r; dx <= r; dx++ {
			dy := r - abs(dx)
			for _, q := range [2]layout.Point{{X: p.X + dx, Y: p.Y + dy}, {X: p.X + dx, Y: p.Y - dy}} {
				if q.X >= 0 && q.X < lay.W && q.Y >= 0 && q.Y < lay.H && lay.At(q) == netlist.InvalidGate {
					return q
				}
			}
		}
	}
	return p // full die; Place will error out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
