// Package attack implements the FEOL-centric attacks the paper
// evaluates against:
//
//   - Proximity: a re-implementation of the network-style proximity
//     attack of Wang et al. TVLSI'18 [7], using exactly the hints the
//     paper's Theorem 1 proof enumerates — physical proximity, FEOL
//     routing direction, driver load constraints, and combinational
//     loop avoidance — plus the key-aware post-processing step the
//     paper adds in Sec. IV-A. It has one configuration, the attacker
//     the paper's security argument is made against: every hint is
//     always on, and only the seed and the post-processing step are
//     options.
//   - Ideal: the "ideal proximity attack" of Sec. IV-A in which every
//     regular net is assumed correctly inferred and only key-nets
//     remain to be guessed.
//   - SAT (satattack.go): the oracle-guided key-extraction attack
//     [19], demonstrating why the absence of an oracle in the split
//     manufacturing threat model makes it inapplicable.
package attack

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/cellib"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/split"
)

// Assignment is an attacker's hypothesis λ'(x2): a driver for every
// broken sink pin.
type Assignment map[split.PinRef]netlist.GateID

// ProximityOptions tunes the attack.
type ProximityOptions struct {
	// Seed drives tie-breaking and the key post-processing step.
	Seed uint64
	// KeyPostProcess re-connects key-gates that were matched to
	// regular drivers to a random TIE cell instead (the paper's
	// improvement to [7]: the attacker knows which gates are
	// key-gates). Footnote 6 reports the attack without it.
	KeyPostProcess bool
}

const (
	// candidateLimit is the number of nearest driver stubs considered
	// per sink pin.
	candidateLimit = 16
	// cycleBudget caps the DFS node count per acyclicity query; a
	// post-pass repairs any cycle that slips through.
	cycleBudget = 4096
)

// Proximity runs the proximity attack on a FEOL view and returns the
// attacker's assignment. The view's Secret is never consulted.
func Proximity(view *split.FEOLView, opt ProximityOptions) (Assignment, error) {
	p, err := greedyProximity(view, opt)
	if err != nil {
		return nil, err
	}
	return p.finish(p.asg, opt.KeyPostProcess), nil
}

// ProximityPair runs the greedy search once and returns both
// assignments the Table I/II cells need: post equals Proximity with
// KeyPostProcess set and raw equals it unset (footnote 6), whatever
// opt.KeyPostProcess says. The two variants draw the same random
// numbers up to the end of the greedy loop, postProcessKeyPins runs
// only after it, and repairCycles draws none, so finishing a clone of
// the greedy assignment each way is bit-identical to two calls.
func ProximityPair(view *split.FEOLView, opt ProximityOptions) (post, raw Assignment, err error) {
	p, err := greedyProximity(view, opt)
	if err != nil {
		return nil, nil, err
	}
	raw = p.finish(maps.Clone(p.asg), false)
	return p.finish(p.asg, true), raw, nil
}

// proximityPass is what the greedy search leaves for the finish step:
// its assignment and the generator in its post-loop state.
type proximityPass struct {
	view *split.FEOLView
	ties []split.DriverStub
	rng  *xrand
	asg  Assignment
}

// greedyProximity is Wang et al.'s greedy search: rank every sink pin's
// candidate drivers, then assign the most confident pins first under
// the load and acyclicity constraints, falling back to a random TIE
// cell when every candidate is refused.
func greedyProximity(view *split.FEOLView, opt ProximityOptions) (*proximityPass, error) {
	c := view.Circuit
	if len(view.CutPins) == 0 {
		return &proximityPass{view: view, asg: Assignment{}}, nil
	}
	if len(view.DriverStubs) == 0 {
		return nil, fmt.Errorf("attack: no driver stubs to match")
	}

	idx := newStubIndex(view.DriverStubs)
	rng := newRand(opt.Seed)
	ties := view.TieStubs()

	// Score all sink pins' candidate lists; each list is a k-slot
	// window of one shared backing array.
	type scored struct {
		pin   split.CutPin
		cands []candidate
	}
	k := min(candidateLimit, len(view.DriverStubs))
	pins := make([]scored, len(view.CutPins))
	backing := make([]candidate, len(pins)*k)
	for i, cp := range view.CutPins {
		pins[i] = scored{pin: cp, cands: idx.nearest(cp, candidateLimit, backing[i*k:i*k:(i+1)*k])}
	}
	// Most confident first: smallest best-candidate score.
	sort.SliceStable(pins, func(i, j int) bool {
		si, sj := bestScore(pins[i].cands), bestScore(pins[j].cands)
		if si != sj {
			return si < sj
		}
		return lessPinRef(pins[i].pin.Ref, pins[j].pin.Ref)
	})

	asg := make(Assignment, len(pins))
	load := make(map[netlist.GateID]float64)
	// Seed loads with the FEOL-visible fanout of every driver.
	for _, ds := range view.DriverStubs {
		load[ds.Driver] = cellib.FanoutCap(c, ds.Driver)
	}
	chk := newCycleChecker(c, cycleBudget)

	for _, sp := range pins {
		sinkCell := c.Gate(sp.pin.Ref.Gate)
		pinCap := cellib.ForGate(sinkCell.Type, len(sinkCell.Fanin)).InputCap
		assigned := false
		for _, cand := range sp.cands {
			d := cand.driver
			if !driverCanTake(c, d, load[d], pinCap) {
				continue
			}
			if chk.createsCycle(sp.pin.Ref.Gate, d) {
				continue
			}
			asg[sp.pin.Ref] = d
			load[d] += pinCap
			chk.note(d, sp.pin.Ref.Gate)
			assigned = true
			break
		}
		if !assigned {
			// Constraints exhausted: fall back to a random TIE cell
			// (sources can never create loops and have no load limit).
			if tie := randomTie(ties, rng); tie != netlist.InvalidGate {
				asg[sp.pin.Ref] = tie
			} else if len(sp.cands) > 0 {
				asg[sp.pin.Ref] = sp.cands[0].driver
			}
		}
	}

	return &proximityPass{view: view, ties: ties, rng: rng, asg: asg}, nil
}

// finish completes one variant of the attack on asg, which must be p's
// assignment or a clone of it: the key-aware post-processing if post
// is set, then the cycle repair. A view with no cut pins has nothing
// to finish.
func (p *proximityPass) finish(asg Assignment, post bool) Assignment {
	if len(p.view.CutPins) == 0 {
		return asg
	}
	if post {
		postProcessKeyPins(p.view, p.ties, asg, p.rng)
	}
	repairCycles(p.view.Circuit, p.view, p.ties, asg)
	return asg
}

// postProcessKeyPins applies the paper's Sec. IV-A customization: any
// key-gate falsely connected to a regular driver is re-connected to a
// random TIE cell (key-gates already on a TIE cell are kept).
func postProcessKeyPins(view *split.FEOLView, ties []split.DriverStub, asg Assignment, rng *xrand) {
	if len(ties) == 0 {
		return
	}
	for _, cp := range view.KeyPins() {
		d, ok := asg[cp.Ref]
		if ok && view.Circuit.Gate(d).Type.IsTie() {
			continue
		}
		asg[cp.Ref] = ties[rng.intn(len(ties))].Driver
	}
}

// candidate is one possible driver for a sink pin.
type candidate struct {
	driver netlist.GateID
	score  float64
}

// less is the ranking order: score, then driver ID. Candidates equal
// under it are identical values, so any stable ranking agrees.
func (a candidate) less(b candidate) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.driver < b.driver
}

func bestScore(cands []candidate) float64 {
	if len(cands) == 0 {
		return 1e18
	}
	return cands[0].score
}

// stubIndex buckets driver stubs on a coarse grid for nearest-first
// retrieval.
type stubIndex struct {
	stubs      []split.DriverStub
	tile       int
	tx, ty     int
	minX, minY int
	buckets    map[int][]int
	found      []int // nearest's gather scratch, reused across pins
}

func newStubIndex(stubs []split.DriverStub) *stubIndex {
	minX, minY := 1<<30, 1<<30
	maxX, maxY := -(1 << 30), -(1 << 30)
	for _, s := range stubs {
		if s.Stub.X < minX {
			minX = s.Stub.X
		}
		if s.Stub.Y < minY {
			minY = s.Stub.Y
		}
		if s.Stub.X > maxX {
			maxX = s.Stub.X
		}
		if s.Stub.Y > maxY {
			maxY = s.Stub.Y
		}
	}
	tile := 8
	idx := &stubIndex{stubs: stubs, tile: tile, minX: minX, minY: minY, buckets: make(map[int][]int)}
	idx.tx = (maxX-minX)/tile + 1
	idx.ty = (maxY-minY)/tile + 1
	for i, s := range stubs {
		idx.buckets[idx.key(s.Stub)] = append(idx.buckets[idx.key(s.Stub)], i)
	}
	return idx
}

func (idx *stubIndex) key(p layout.Point) int {
	x := (p.X - idx.minX) / idx.tile
	y := (p.Y - idx.minY) / idx.tile
	return y*idx.tx + x
}

// nearest returns up to want driver stubs ranked by the attack score:
// Manhattan distance discounted when the FEOL escape directions agree
// with the geometry. The ranking is written into top, which must have
// room for min(want, number of stubs).
func (idx *stubIndex) nearest(cp split.CutPin, want int, top []candidate) []candidate {
	found := idx.found[:0]
	cx := (cp.Stub.X - idx.minX) / idx.tile
	cy := (cp.Stub.Y - idx.minY) / idx.tile
	for r := 0; r < idx.tx+idx.ty+2; r++ {
		for dy := -r; dy <= r; dy++ {
			dx := r - abs(dy)
			for _, sx := range []int{cx - dx, cx + dx} {
				y := cy + dy
				if sx < 0 || sx >= idx.tx || y < 0 || y >= idx.ty {
					continue
				}
				found = append(found, idx.buckets[y*idx.tx+sx]...)
				if dx == 0 {
					break // avoid double-visiting the dx==0 column
				}
			}
		}
		// Stop once the rings hold at least 3×want stubs,
		// but never before rings 0–2 are gathered.
		if len(found) >= want*3 && r > 1 {
			break
		}
	}
	idx.found = found
	top = top[:0]
	for _, si := range found {
		ds := idx.stubs[si]
		score := float64(cp.Stub.Dist(ds.Stub))
		// A sink escape pointing at the driver stub, or a driver
		// escape pointing at the sink stub, strengthens the match.
		if cp.Dir != layout.DirNone && cp.Dir == layout.Toward(cp.Stub, ds.Stub) {
			score *= 0.6
		}
		if ds.Dir != layout.DirNone && ds.Dir == layout.Toward(ds.Stub, cp.Stub) {
			score *= 0.6
		}
		// Stacked-via signature matching: a pin with no FEOL escape
		// was wired as a new net through the BEOL; its partner stub
		// shows the same signature. (Kerckhoff: the attacker knows
		// the scheme.) Against randomized TIE cells this changes
		// nothing — all TIE stubs share the signature — but it
		// recovers naive layouts (Fig. 2(a)/(b)).
		if cp.Dir == layout.DirNone && ds.Dir == layout.DirNone {
			score *= 0.5
		}
		// Keep the want best in order: insert after every equal
		// candidate, and drop the worst once the buffer is full. This
		// is exactly the want-prefix of a stable sort by less.
		cand := candidate{driver: ds.Driver, score: score}
		n := len(top)
		if n == want {
			if !cand.less(top[n-1]) {
				continue
			}
			n--
		} else {
			top = top[:n+1]
		}
		for n > 0 && cand.less(top[n-1]) {
			top[n] = top[n-1]
			n--
		}
		top[n] = cand
	}
	return top
}

// driverCanTake checks the load constraint: the proposed extra sink cap
// must fit the driver's MaxLoad. TIE cells are unconstrained (paper
// proof outline, hint 3).
func driverCanTake(c *netlist.Circuit, d netlist.GateID, cur, extra float64) bool {
	g := c.Gate(d)
	cell := cellib.ForGate(g.Type, len(g.Fanin))
	if cell.Unconstrained {
		return true
	}
	return cur+extra <= cell.MaxLoad
}

// cycleChecker answers "does adding edge d→g close a combinational
// loop" with a budgeted DFS over FEOL edges plus assigned edges.
type cycleChecker struct {
	c      *netlist.Circuit
	budget int
	// The non-DFF FEOL fanouts of gate id, in Fanouts order, are
	// succ[start[id]:start[id+1]].
	start []int32
	succ  []netlist.GateID
	// extra[id] lists the hypothesis sinks added by assignments.
	extra [][]netlist.GateID
	// mark[id] == epoch means id was visited by the current query;
	// bumping epoch clears every mark at once.
	mark  []uint32
	epoch uint32
	stack []netlist.GateID
}

func newCycleChecker(c *netlist.Circuit, budget int) *cycleChecker {
	n := c.NumIDs()
	cc := &cycleChecker{
		c:      c,
		budget: budget,
		start:  make([]int32, n+1),
		extra:  make([][]netlist.GateID, n),
		mark:   make([]uint32, n),
	}
	for id := 0; id < n; id++ {
		for _, s := range c.Fanouts(netlist.GateID(id)) {
			if c.Gate(s).Type != netlist.DFF {
				cc.succ = append(cc.succ, s)
			}
		}
		cc.start[id+1] = int32(len(cc.succ))
	}
	return cc
}

// note records an accepted assignment edge d→g (driver to sink gate).
func (cc *cycleChecker) note(d, g netlist.GateID) {
	cc.extra[d] = append(cc.extra[d], g)
}

// createsCycle reports whether d is combinationally reachable from g.
// The DFS gives up (returns false) after the node budget; the final
// repair pass guarantees global acyclicity.
func (cc *cycleChecker) createsCycle(g, d netlist.GateID) bool {
	if cc.c.Gate(d).Type.IsSource() {
		return false
	}
	if g == d {
		return true
	}
	cc.epoch++
	if cc.epoch == 0 {
		clear(cc.mark)
		cc.epoch = 1
	}
	mark, epoch := cc.mark, cc.epoch
	stack := append(cc.stack[:0], g)
	nodes := 0
	hit := false
search:
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark[id] == epoch {
			continue
		}
		mark[id] = epoch
		nodes++
		if nodes > cc.budget {
			break
		}
		for _, s := range cc.succ[cc.start[id]:cc.start[id+1]] {
			if s == d {
				hit = true
				break search
			}
			if mark[s] != epoch {
				stack = append(stack, s)
			}
		}
		for _, s := range cc.extra[id] {
			if s == d {
				hit = true
				break search
			}
			if mark[s] != epoch {
				stack = append(stack, s)
			}
		}
	}
	cc.stack = stack
	return hit
}

// repairCycles makes the hypothesis globally acyclic: any sink pin
// whose assignment participates in a combinational loop is re-pointed
// at a TIE cell (or a primary input), which can never lie on a loop.
func repairCycles(c *netlist.Circuit, view *split.FEOLView, ties []split.DriverStub, asg Assignment) {
	safe := safeSource(ties, c)
	if safe == netlist.InvalidGate {
		return
	}
	for iter := 0; iter < 64; iter++ {
		stuck := cyclicGates(c, asg)
		if len(stuck) == 0 {
			return
		}
		changed := false
		for _, cp := range view.CutPins {
			d, ok := asg[cp.Ref]
			if !ok {
				continue
			}
			if stuck[cp.Ref.Gate] && stuck[d] && !c.Gate(d).Type.IsSource() {
				asg[cp.Ref] = safe
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func safeSource(ties []split.DriverStub, c *netlist.Circuit) netlist.GateID {
	if len(ties) > 0 {
		return ties[0].Driver
	}
	if ins := c.Inputs(); len(ins) > 0 {
		return ins[0]
	}
	return netlist.InvalidGate
}

// cyclicGates runs Kahn's algorithm over FEOL + assignment edges and
// returns the gates that could not be ordered (loop members and their
// combinational dependents).
func cyclicGates(c *netlist.Circuit, asg Assignment) map[netlist.GateID]bool {
	n := c.NumIDs()
	indeg := make([]int, n)
	fanout := make([][]netlist.GateID, n)
	total := 0
	for i := 0; i < n; i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		total++
		g := c.Gate(id)
		if g.Type == netlist.DFF {
			continue
		}
		// Effective fanin: original fanin with cut pins overridden.
		for pin, f := range g.Fanin {
			if d, ok := asg[split.PinRef{Gate: id, Pin: pin}]; ok {
				f = d
			}
			indeg[id]++
			fanout[f] = append(fanout[f], id)
		}
	}
	var queue []netlist.GateID
	for i := 0; i < n; i++ {
		id := netlist.GateID(i)
		if c.Alive(id) && indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	ordered := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		ordered++
		for _, s := range fanout[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	stuck := make(map[netlist.GateID]bool)
	if ordered == total {
		return stuck
	}
	for i := 0; i < n; i++ {
		id := netlist.GateID(i)
		if c.Alive(id) && indeg[id] > 0 {
			stuck[id] = true
		}
	}
	return stuck
}

func randomTie(ties []split.DriverStub, rng *xrand) netlist.GateID {
	if len(ties) == 0 {
		return netlist.InvalidGate
	}
	return ties[rng.intn(len(ties))].Driver
}

func lessPinRef(a, b split.PinRef) bool {
	if a.Gate != b.Gate {
		return a.Gate < b.Gate
	}
	return a.Pin < b.Pin
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// xrand is a tiny deterministic generator local to the attack package.
type xrand struct{ s uint64 }

func newRand(seed uint64) *xrand { return &xrand{s: seed*2654435761 + 1} }

func (r *xrand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *xrand) intn(n int) int { return int(r.next() % uint64(n)) }
