package locking

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cellib"
	"repro/internal/faultpoint"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// A trial is one applied fault region on its way through the Fig. 3
// reject loop. The circuit was valid, acyclic and (after the first
// commit) fully swept before the trial, so everything a whole-circuit
// pass would find is in what the trial touched: its new gates, the
// sinks it rewired and the gates it killed. tryRegion checks only
// those, and the verdict is the one the whole-circuit passes give —
// netlist.Validate, SweepDead, cellib.Area and sim.EquivalentOpt
// against the committed circuit — with the same random draws.

// fpTrialCorrupt makes every trial wrong on purpose, so the reject
// branch and Rollback run.
var fpTrialCorrupt = faultpoint.Describe("locking.trial.corrupt",
	"ATPG lock: invert the first re-driven boundary of the trial (checked once per trial); the equivalence check must reject it")

// trialHook, when set, sees every trial once tryRegion has decided it,
// before it is rolled back or committed: the analyzer holding the
// trial's bookkeeping, the committed circuit's simulator and ID count,
// a clone of the circuit before the trial, the equivalence seed
// (meaningful unless the verdict is errMalformed) and the verdict (nil:
// kept). It lets tests hold the cone-local check to the whole-circuit
// one.
var trialHook func(a *analyzer, eval *sim.Evaluator, n0 int, before *netlist.Circuit, seed uint64, verdict error)

var (
	// errNotEquivalent rejects a trial whose simulation differs from
	// the committed circuit's.
	errNotEquivalent = errors.New("locking: trial not equivalent")
	// errMalformed rejects a trial that is not a valid netlist, which
	// the equivalence check never sees.
	errMalformed = errors.New("locking: trial is not a valid netlist")
)

// rewire is one sink applyRegion moved from a removed boundary net
// (old) to its new driver.
type rewire struct{ sink, old, new netlist.GateID }

// edgeCursor is a gate on a depth-first walk and the index of the next
// edge to follow from it.
type edgeCursor struct {
	id   netlist.GateID
	next int
}

// tryRegion applies r under the open checkpoint and checks the trial.
// n0 is the committed circuit's ID count, eval its compiled simulator,
// and stale the gates that were already dead before the first commit
// (nil after it), which a whole-circuit sweep also removes. It returns
// the key bits the trial added and the equivalence seed it drew; a
// non-nil error rejects the trial.
func (a *analyzer) tryRegion(lk *Locked, r *region, rng *sim.Rand, eval *sim.Evaluator, n0 int, stale []netlist.GateID) (bits int, seed uint64, err error) {
	a.killed = a.killed[:0]
	bits, err = a.applyRegion(lk, r, rng, faultpoint.Fired(fpTrialCorrupt))
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", errMalformed, err)
	}
	a.sweep(r.removed, n0, stale)
	if err := a.checkEdges(n0); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", errMalformed, err)
	}
	seed = rng.Word()
	// A boundary the trial changed, or no observable at all, fails the
	// equivalence check before it simulates.
	for _, k := range a.killed {
		if t := a.c.Gate(k).Type; t == netlist.Input || t == netlist.Output || t == netlist.DFF {
			return 0, seed, fmt.Errorf("locking: trial removed %v %q", t, a.c.Gate(k).Name)
		}
	}
	if len(a.c.Outputs()) == 0 && eval.NumState() == 0 {
		return 0, seed, errors.New("locking: circuit has no observables")
	}
	if a.boundariesHold(r, n0) {
		return bits, seed, nil
	}
	if err := a.forwardCone(n0); err != nil {
		return 0, seed, err
	}
	eq, err := eval.EquivalentEdit(&a.edit, 1<<12, seed)
	if err == nil && !eq {
		err = errNotEquivalent
	}
	return bits, seed, err
}

// isAnchor reports whether SweepDead always keeps gate id.
func isAnchor(g *netlist.Gate) bool {
	return g.Type == netlist.Input || g.Type == netlist.Output || g.DontTouch
}

// sweep kills what SweepDead would after the trial's edits and sets
// a.killed to every gate the trial killed: removed (already killed by
// applyRegion) and the swept gates, in ascending ID order. A gate can
// only have lost its last path to an anchor if it fed a removed gate,
// directly or through gates that died with it, or if it is new; stale
// lists the gates that were dead before the trial.
func (a *analyzer) sweep(removed []netlist.GateID, n0 int, stale []netlist.GateID) {
	c := a.c
	n := c.NumIDs()
	a.live.clear(n)
	a.dead.clear(n)
	a.work = a.work[:0]
	for _, k := range removed {
		a.work = append(a.work, c.Gate(k).Fanin...)
	}
	for id := n0; id < n; id++ {
		a.work = append(a.work, netlist.GateID(id))
	}
	a.work = append(a.work, stale...)
	for i := 0; i < len(a.work); i++ {
		w := a.work[i]
		if !c.Alive(w) || a.live.has(w) || a.dead.has(w) || a.reachesAnchor(w) {
			continue
		}
		// Nothing w reaches reaches an anchor: all of it is dead, and
		// its fanins may have lost their last path too.
		for _, id := range a.visit.members {
			a.dead.add(id)
			a.work = append(a.work, c.Gate(id).Fanin...)
		}
	}
	a.killed = append(a.killed[:0], removed...)
	start := len(a.killed)
	a.killed = append(a.killed, a.dead.members...)
	slices.Sort(a.killed[start:])
	for _, id := range a.killed[start:] {
		c.Kill(id)
	}
}

// reachesAnchor reports whether a path of fanout edges leads from root
// to an anchor or to a gate already known to reach one. On success the
// gates on the path are marked live; otherwise a.visit holds every gate
// reachable from root that is not known dead.
func (a *analyzer) reachesAnchor(root netlist.GateID) bool {
	c := a.c
	a.visit.clear(c.NumIDs())
	a.visit.add(root)
	a.walk = append(a.walk[:0], edgeCursor{id: root})
	for len(a.walk) > 0 {
		top := &a.walk[len(a.walk)-1]
		if top.next == 0 && (isAnchor(c.Gate(top.id)) || a.live.has(top.id)) {
			for _, e := range a.walk {
				a.live.add(e.id)
			}
			return true
		}
		outs := c.Fanouts(top.id)
		if top.next == len(outs) {
			a.walk = a.walk[:len(a.walk)-1]
			continue
		}
		y := outs[top.next]
		top.next++
		if !a.dead.has(y) && a.visit.add(y) {
			a.walk = append(a.walk, edgeCursor{id: y})
		}
	}
	return false
}

// checkEdges is netlist.Validate restricted to what the trial touched.
// No live gate may read a killed one. Every new gate must read live
// nets and no OUTPUT pseudo-gate (AddGate already checked its arity).
// And the new edges must leave the combinational core acyclic: a new
// gate sits at the highest topological position it reads, and a
// rewired sink whose new driver sits below it cannot close a cycle.
// Only the other sinks are searched for one, over gates no higher than
// any new driver, since every gate on a cycle leads to one.
func (a *analyzer) checkEdges(n0 int) error {
	c := a.c
	n := c.NumIDs()
	for _, k := range a.killed {
		if outs := c.Fanouts(k); len(outs) > 0 {
			return fmt.Errorf("gate %q reads removed gate %q", c.Gate(outs[0]).Name, c.Gate(k).Name)
		}
	}
	pos := func(id netlist.GateID) int32 {
		if int(id) < n0 {
			return a.topoPos[id]
		}
		return a.newPos[int(id)-n0]
	}
	a.newPos = a.newPos[:0]
	for id := n0; id < n; id++ {
		p := int32(-1)
		if g := c.Gate(netlist.GateID(id)); c.Alive(netlist.GateID(id)) {
			for _, f := range g.Fanin {
				if !c.Alive(f) || c.Gate(f).Type == netlist.Output {
					return fmt.Errorf("new gate %q reads dead or OUTPUT gate %d", g.Name, f)
				}
				p = max(p, pos(f))
			}
		}
		a.newPos = append(a.newPos, p)
	}
	a.back = a.back[:0]
	bound := int32(-1)
	for _, rw := range a.rewired {
		if !c.Alive(rw.sink) || c.Gate(rw.sink).Type == netlist.DFF {
			continue // a D pin is not a combinational edge
		}
		p := pos(rw.new)
		bound = max(bound, p)
		if p >= a.topoPos[rw.sink] {
			a.back = append(a.back, rw.sink)
		}
	}
	if len(a.back) == 0 {
		return nil
	}
	// Depth-first search for a cycle: visit marks the gates on the
	// current path, done those fully explored.
	a.visit.clear(n)
	a.done.clear(n)
	for _, s := range a.back {
		if a.done.has(s) {
			continue
		}
		a.visit.add(s)
		a.walk = append(a.walk[:0], edgeCursor{id: s})
		for len(a.walk) > 0 {
			top := &a.walk[len(a.walk)-1]
			outs := c.Fanouts(top.id)
			if top.next == len(outs) {
				a.visit.del(top.id)
				a.done.add(top.id)
				a.walk = a.walk[:len(a.walk)-1]
				continue
			}
			y := outs[top.next]
			top.next++
			if c.Gate(y).Type == netlist.DFF || (int(y) < n0 && a.topoPos[y] > bound) || a.done.has(y) {
				continue
			}
			if a.visit.has(y) {
				return fmt.Errorf("combinational cycle through gate %q", c.Gate(y).Name)
			}
			a.visit.add(y)
			a.walk = append(a.walk, edgeCursor{id: y})
		}
	}
	return nil
}

// boundariesHold is the equivalence check's shortcut: it reports
// whether every rewired sink reads from its new driver what it read
// from the old one, for every value of the region's support. The old
// drivers are functions of the support through committed gates the
// trial did not rewire (the region's), the new ones through the
// trial's new gates, so both are simulated over all 2^n support
// minterms. If they agree, every sink sees the values it saw before on
// any stimulus, so no observable can differ and the simulation would
// find none; if not, the caller simulates. An old driver or a new
// gate that depends on anything else fails the shortcut.
func (a *analyzer) boundariesHold(r *region, n0 int) bool {
	c := a.c
	n := c.NumIDs()
	a.done.clear(n)
	for _, s := range r.support {
		a.done.add(s)
	}
	a.obs.clear(n)
	for _, rw := range a.rewired {
		a.obs.add(rw.sink)
	}
	// The committed gates behind the old drivers, in topological
	// order, then the new gates in ID order (each new gate was added
	// after its fanins).
	a.inCone.clear(n)
	ids := a.coneIDs[:0]
	walk := a.work[:0]
	for _, rw := range a.rewired {
		walk = append(walk, rw.old)
	}
	for len(walk) > 0 {
		x := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		if a.done.has(x) || !a.inCone.add(x) {
			continue
		}
		if c.Gate(x).Type.IsSource() || a.obs.has(x) {
			return false
		}
		ids = append(ids, x)
		walk = append(walk, c.Gate(x).Fanin...)
	}
	a.work = walk
	slices.SortFunc(ids, func(x, y netlist.GateID) int { return cmp.Compare(a.topoPos[x], a.topoPos[y]) })
	var ties []netlist.GateID
	for id := netlist.GateID(n0); int(id) < n; id++ {
		if !c.Alive(id) {
			continue
		}
		// A new gate that reads a committed net outside the support
		// and the old drivers' cone reads a value not simulated here.
		for _, f := range c.Gate(id).Fanin {
			if int(f) < n0 && !a.done.has(f) && !a.inCone.has(f) {
				return false
			}
		}
		ids = append(ids, id)
		if c.Gate(id).Type.IsTie() {
			ties = append(ties, id)
		}
	}
	a.coneIDs = ids
	if a.holdCone.Recompile(c, ids) != nil {
		return false
	}
	if len(a.nets) < n {
		a.nets = append(a.nets, make([]uint64, n-len(a.nets))...)
	}
	for _, t := range ties {
		a.nets[t] = 0
		if c.Gate(t).Type == netlist.TieHi {
			a.nets[t] = ^uint64(0)
		}
	}
	k := len(r.support)
	size := 1 << uint(k)
	a.forced = slices.Grow(a.forced[:0], k)[:k]
	for ch := 0; ch < (size+63)/64; ch++ {
		sim.ExhaustiveWords(a.forced, k, ch)
		for i, s := range r.support {
			a.nets[s] = a.forced[i]
		}
		a.holdCone.Eval(a.nets)
		mask := ^uint64(0)
		if ch == (size+63)/64-1 {
			mask = lowMask(size)
		}
		for _, rw := range a.rewired {
			if c.Alive(rw.sink) && (a.nets[rw.old]^a.nets[rw.new])&mask != 0 {
				return false
			}
		}
	}
	return true
}

// forwardCone sets a.edit to the trial's forward cone: the new gates
// and the rewired sinks, plus their combinational fanout, compiled in
// topological order, with the observables the cone reaches. A primary
// output is compared with itself; a flip-flop's next state with its D
// pin's driver before the trial, which differs where the trial
// rewired the pin.
func (a *analyzer) forwardCone(n0 int) error {
	c := a.c
	n := c.NumIDs()
	a.inCone.clear(n)
	a.obs.clear(n)
	ids := a.coneIDs[:0]
	d := &a.edit
	d.Ties, d.Observed = d.Ties[:0], d.Observed[:0]
	add := func(id netlist.GateID) {
		if a.inCone.add(id) {
			ids = append(ids, id)
		}
	}
	for _, rw := range a.rewired {
		switch {
		case !c.Alive(rw.sink):
		case c.Gate(rw.sink).Type == netlist.DFF:
			if a.obs.add(rw.sink) {
				d.Observed = append(d.Observed, sim.NetPair{Before: rw.old, After: c.Gate(rw.sink).Fanin[0]})
			}
		default:
			add(rw.sink)
		}
	}
	for id := netlist.GateID(n0); int(id) < n; id++ {
		if c.Alive(id) {
			if c.Gate(id).Type.IsTie() {
				d.Ties = append(d.Ties, id)
			}
			add(id)
		}
	}
	for i := 0; i < len(ids); i++ {
		x := ids[i]
		if c.Gate(x).Type == netlist.Output {
			d.Observed = append(d.Observed, sim.NetPair{Before: x, After: x})
		}
		for _, y := range c.Fanouts(x) {
			if c.Gate(y).Type != netlist.DFF {
				add(y)
			} else if a.obs.add(y) {
				d.Observed = append(d.Observed, sim.NetPair{Before: x, After: x})
			}
		}
	}
	a.coneIDs = ids

	// Topological order: each gate after its fanins inside the cone
	// (depth-first, emitted once its fanins are).
	order := a.coneOrder[:0]
	a.done.clear(n)
	for _, root := range ids {
		if !a.done.add(root) {
			continue
		}
		a.walk = append(a.walk[:0], edgeCursor{id: root})
		for len(a.walk) > 0 {
			top := &a.walk[len(a.walk)-1]
			fan := c.Gate(top.id).Fanin
			if top.next == len(fan) {
				order = append(order, top.id)
				a.walk = a.walk[:len(a.walk)-1]
				continue
			}
			f := fan[top.next]
			top.next++
			if a.inCone.has(f) && a.done.add(f) {
				a.walk = append(a.walk, edgeCursor{id: f})
			}
		}
	}
	a.coneOrder = order
	d.Cone = &a.trialCone
	return a.trialCone.Recompile(c, order)
}

// areaLedger is cellib.Area of the lock's circuit, kept under edits.
// cell[id] is what gate id adds to the sum (0 when it is dead or a
// primary input or output) and sum[i] is the ID-order sum of cell[:i],
// added in cellib.Area's order: a total is therefore bit-identical to
// cellib.Area, and an edit re-adds only from its lowest ID.
type areaLedger struct{ cell, sum []float64 }

// update re-reads the cells of ids and of every ID from from on (the
// circuit's ID count may have grown or shrunk to from), re-adds the
// sum from the lowest of them, and returns the circuit's area.
func (l *areaLedger) update(c *netlist.Circuit, ids []netlist.GateID, from int) float64 {
	lo := from
	l.cell = l.cell[:min(from, len(l.cell))]
	for _, id := range ids {
		if int(id) < len(l.cell) {
			l.cell[id] = cellArea(c, id)
			lo = min(lo, int(id))
		}
	}
	for id := len(l.cell); id < c.NumIDs(); id++ {
		l.cell = append(l.cell, cellArea(c, netlist.GateID(id)))
	}
	if len(l.sum) == 0 {
		l.sum = append(l.sum, 0)
	}
	l.sum = l.sum[:lo+1]
	for i := lo; i < len(l.cell); i++ {
		l.sum = append(l.sum, l.sum[i]+l.cell[i])
	}
	return l.sum[len(l.cell)]
}

// cellArea is gate id's term in cellib.Area.
func cellArea(c *netlist.Circuit, id netlist.GateID) float64 {
	if !c.Alive(id) {
		return 0
	}
	g := c.Gate(id)
	if g.Type == netlist.Input || g.Type == netlist.Output {
		return 0
	}
	return cellib.ForGate(g.Type, len(g.Fanin)).Area
}
