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
	"slices"
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
	// loop is the loop check's work.
	loop LoopCheckWork
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
	load := make([]float64, c.NumIDs())
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

	return &proximityPass{view: view, ties: ties, rng: rng, asg: asg, loop: chk.work}, nil
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
// retrieval. The stubs in tile t = y*tx + x are recs[start[t]:start[t+1]],
// in DriverStubs order.
type stubIndex struct {
	tile       int
	tx, ty     int
	minX, minY int
	start      []int32
	recs       []stubRec
	tiles      []int32 // nearest's gather scratch, reused across pins
	// scored counts the stubs nearest has scored, skipped the tiles it
	// pruned unscored, over all calls.
	scored, skipped int
}

// stubRec is a driver stub as the ranking reads it.
type stubRec struct {
	x, y   int32
	dir    layout.Direction
	driver netlist.GateID
}

func newStubIndex(stubs []split.DriverStub) *stubIndex {
	minX, minY := 1<<30, 1<<30
	maxX, maxY := -(1 << 30), -(1 << 30)
	for _, s := range stubs {
		minX, minY = min(minX, s.Stub.X), min(minY, s.Stub.Y)
		maxX, maxY = max(maxX, s.Stub.X), max(maxY, s.Stub.Y)
	}
	tile := 8
	idx := &stubIndex{tile: tile, minX: minX, minY: minY}
	idx.tx = (maxX-minX)/tile + 1
	idx.ty = (maxY-minY)/tile + 1
	// Counting sort by tile: count, prefix-sum, then place.
	idx.start = make([]int32, idx.tx*idx.ty+1)
	for _, s := range stubs {
		idx.start[idx.key(s.Stub)+1]++
	}
	for t := 1; t < len(idx.start); t++ {
		idx.start[t] += idx.start[t-1]
	}
	next := append([]int32(nil), idx.start[:len(idx.start)-1]...)
	idx.recs = make([]stubRec, len(stubs))
	for _, s := range stubs {
		t := idx.key(s.Stub)
		idx.recs[next[t]] = stubRec{x: int32(s.Stub.X), y: int32(s.Stub.Y), dir: s.Dir, driver: s.Driver}
		next[t]++
	}
	return idx
}

func (idx *stubIndex) key(p layout.Point) int {
	x := (p.X - idx.minX) / idx.tile
	y := (p.Y - idx.minY) / idx.tile
	return y*idx.tx + x
}

// boxDist is the Manhattan distance from p to the nearest point of
// tile t, a lower bound on its distance to every stub in the tile.
func (idx *stubIndex) boxDist(t int32, p layout.Point) int {
	lox := idx.minX + int(t)%idx.tx*idx.tile
	loy := idx.minY + int(t)/idx.tx*idx.tile
	return max(lox-p.X, p.X-(lox+idx.tile-1), 0) + max(loy-p.Y, p.Y-(loy+idx.tile-1), 0)
}

// nearest returns up to want driver stubs ranked by the attack score:
// Manhattan distance discounted when the FEOL escape directions agree
// with the geometry. The ranking is written into top, which must have
// room for min(want, number of stubs).
//
// The candidates are the stubs of every tile within the gather radius:
// the first ring of tiles around the pin's tile, past ring 1, by which
// the rings hold at least 3×want stubs (or every ring). Tiles are
// scored ring by ring, and a tile is skipped once top is full and
// 0.35× its distance from the pin exceeds the worst kept score: every
// score is at least 0.36× the stub's distance (two 0.6 discounts, or
// one 0.5), so no stub in it could enter top. The result is the
// want-prefix of a stable sort of every candidate by less.
func (idx *stubIndex) nearest(cp split.CutPin, want int, top []candidate) []candidate {
	tiles := idx.tiles[:0]
	cx := (cp.Stub.X - idx.minX) / idx.tile
	cy := (cp.Stub.Y - idx.minY) / idx.tile
	found := 0
	for r := 0; r < idx.tx+idx.ty+2; r++ {
		for dy := -r; dy <= r; dy++ {
			y := cy + dy
			if y < 0 || y >= idx.ty {
				continue
			}
			dx := r - abs(dy)
			for _, x := range [2]int{cx - dx, cx + dx} {
				if x >= 0 && x < idx.tx {
					t := y*idx.tx + x
					if n := idx.start[t+1] - idx.start[t]; n > 0 {
						tiles = append(tiles, int32(t))
						found += int(n)
					}
				}
				if dx == 0 {
					break // avoid double-visiting the dx==0 column
				}
			}
		}
		// Stop once the rings hold at least 3×want stubs,
		// but never before rings 0–2 are gathered.
		if found >= want*3 && r > 1 {
			break
		}
	}
	idx.tiles = tiles
	top = top[:0]
	for _, t := range tiles {
		if len(top) == want && 0.35*float64(idx.boxDist(t, cp.Stub)) > top[want-1].score {
			idx.skipped++
			continue
		}
		recs := idx.recs[idx.start[t]:idx.start[t+1]]
		idx.scored += len(recs)
		for _, s := range recs {
			ds := layout.Point{X: int(s.x), Y: int(s.y)}
			score := float64(cp.Stub.Dist(ds))
			// A sink escape pointing at the driver stub, or a driver
			// escape pointing at the sink stub, strengthens the match.
			if cp.Dir != layout.DirNone && cp.Dir == layout.Toward(cp.Stub, ds) {
				score *= 0.6
			}
			if s.dir != layout.DirNone && s.dir == layout.Toward(ds, cp.Stub) {
				score *= 0.6
			}
			// Stacked-via signature matching: a pin with no FEOL escape
			// was wired as a new net through the BEOL; its partner stub
			// shows the same signature. (Kerckhoff: the attacker knows
			// the scheme.) Against randomized TIE cells this changes
			// nothing — all TIE stubs share the signature — but it
			// recovers naive layouts (Fig. 2(a)/(b)).
			if cp.Dir == layout.DirNone && s.dir == layout.DirNone {
				score *= 0.5
			}
			// Keep the want best in order: insert after every equal
			// candidate, and drop the worst once the buffer is full. This
			// is exactly the want-prefix of a stable sort by less.
			cand := candidate{driver: s.driver, score: score}
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
	}
	return top
}

// ScoredStubs reports how many driver stubs the candidate ranking
// scores to rank every cut pin of view: the work the proximity attack
// spends finding candidates, before any load or loop check.
func ScoredStubs(view *split.FEOLView) int {
	if len(view.DriverStubs) == 0 {
		return 0
	}
	idx := newStubIndex(view.DriverStubs)
	top := make([]candidate, min(candidateLimit, len(view.DriverStubs)))
	for _, cp := range view.CutPins {
		idx.nearest(cp, candidateLimit, top)
	}
	return idx.scored
}

// LoopCheckWork counts the acyclicity check's work in one greedy
// search.
type LoopCheckWork struct {
	// Nodes is the number of DFS nodes the walks expanded.
	Nodes int
	// Queries is the number of loop queries a walk answers (a source
	// driver, or a driver that is the sink itself, needs none).
	Queries int
	// CapHits is the number of queries answered "no loop" because the
	// walk hit the node budget, not because it ran out of nodes.
	CapHits int
}

// LoopCheck reports the acyclicity check's work in the greedy search
// over every cut pin of view: the work the proximity attack spends on
// loop avoidance. The seed only draws TIE fallbacks, which the check
// never sees, so the count has no option.
func LoopCheck(view *split.FEOLView) LoopCheckWork {
	p, err := greedyProximity(view, ProximityOptions{})
	if err != nil {
		return LoopCheckWork{}
	}
	return p.loop
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
//
// The DFS from g pops nodes LIFO, marks a node when it pops it, counts
// it against the budget, and scans its successors in order (FEOL
// fanouts in Fanouts order, then noted sinks in note order), pushing
// each unmarked one. The query's answer is whether d is scanned before
// the walk runs out of budget or nodes. Nothing in that walk depends
// on d, so the checker keeps the walk from the last queried sink: a
// later query from the same sink answers true if d was already
// scanned, false if the walk already finished, and otherwise resumes
// the walk where it stopped, mid-node if need be. A noted edge u→v
// drops the kept walk only if the walk expanded u; until then u's
// successors have not been read, so the walk so far is the one the
// new graph gives. A query answering false never scanned d, let alone
// expanded it, so the greedy loop's own note(d, g) keeps the walk.
type cycleChecker struct {
	budget int
	nodes  []loopNode
	// over[id] holds gate id's successors past the inline ones.
	over [][]netlist.GateID

	// The kept walk: a DFS from sink (InvalidGate: none) whose marks
	// and seen stamps equal stamp. It stopped while scanning cur's
	// successors at index next (cur is InvalidGate between nodes),
	// after marking count nodes; done means it hit the budget or ran
	// out of nodes.
	sink  netlist.GateID
	stamp uint32
	stack []netlist.GateID
	cur   netlist.GateID
	next  int32
	count int
	done  bool

	// work counts every walk's expansions and every query.
	work LoopCheckWork
}

// inlineSucc is the number of successors a loopNode holds inline.
const inlineSucc = 4

// loopNode is one gate's 32-byte record in the loop check.
type loopNode struct {
	mark uint32 // == stamp: the kept walk popped and marked the gate
	seen uint32 // == stamp: the kept walk scanned it as a successor
	deg  int32  // successor count, the first inlineSucc of them in succ
	src  bool   // a source gate, which no loop can pass through
	succ [inlineSucc]netlist.GateID
}

func newCycleChecker(c *netlist.Circuit, budget int) *cycleChecker {
	n := c.NumIDs()
	cc := &cycleChecker{
		budget: budget,
		nodes:  make([]loopNode, n),
		over:   make([][]netlist.GateID, n),
		sink:   netlist.InvalidGate,
	}
	for id := range netlist.GateID(n) {
		cc.nodes[id].src = c.Gate(id).Type.IsSource()
		for _, s := range c.Fanouts(id) {
			if c.Gate(s).Type != netlist.DFF {
				cc.addSucc(id, s)
			}
		}
	}
	return cc
}

func (cc *cycleChecker) addSucc(u, v netlist.GateID) {
	n := &cc.nodes[u]
	if n.deg < inlineSucc {
		n.succ[n.deg] = v
	} else {
		cc.over[u] = append(cc.over[u], v)
	}
	n.deg++
}

// note records an accepted assignment edge d→g (driver to sink gate).
func (cc *cycleChecker) note(d, g netlist.GateID) {
	cc.addSucc(d, g)
	if cc.nodes[d].mark == cc.stamp {
		cc.sink = netlist.InvalidGate
	}
}

// createsCycle reports whether d is combinationally reachable from g.
// The DFS gives up (returns false) after the node budget; the final
// repair pass guarantees global acyclicity.
func (cc *cycleChecker) createsCycle(g, d netlist.GateID) bool {
	if cc.nodes[d].src {
		return false
	}
	if g == d {
		return true
	}
	cc.work.Queries++
	if g != cc.sink {
		cc.restart(g)
	}
	if cc.nodes[d].seen == cc.stamp {
		return true
	}
	if !cc.done && cc.walk(d) {
		return true
	}
	// The walk finished without scanning d: out of budget or of nodes.
	if cc.count > cc.budget {
		cc.work.CapHits++
	}
	return false
}

// restart starts a new kept walk from g.
func (cc *cycleChecker) restart(g netlist.GateID) {
	cc.stamp++
	if cc.stamp == 0 {
		for i := range cc.nodes {
			cc.nodes[i].mark, cc.nodes[i].seen = 0, 0
		}
		cc.stamp = 1
	}
	cc.sink = g
	cc.stack = append(cc.stack[:0], g)
	cc.cur, cc.next = netlist.InvalidGate, 0
	cc.count, cc.done = 0, false
}

// walk resumes the kept walk until it scans d (true) or finishes
// (false).
func (cc *cycleChecker) walk(d netlist.GateID) bool {
	nodes, stamp, stack := cc.nodes, cc.stamp, cc.stack
	id, i, count := cc.cur, cc.next, cc.count
	for {
		if id != netlist.InvalidGate {
			// Scan id's successors from i. Each one is written above the
			// stack top and kept there only if unmarked: a push without
			// a branch on the mark.
			n := &nodes[id]
			stack = slices.Grow(stack, int(n.deg-i))
			buf, top := stack[:cap(stack)], len(stack)
			for ; i < min(n.deg, inlineSucc); i++ {
				s := n.succ[i]
				ns := &nodes[s]
				ns.seen = stamp
				buf[top] = s
				top += b2i(ns.mark != stamp)
				if s == d {
					return cc.pause(buf[:top], id, i+1, count, true)
				}
			}
			if i < n.deg {
				for _, s := range cc.over[id][i-inlineSucc:] {
					i++
					ns := &nodes[s]
					ns.seen = stamp
					buf[top] = s
					top += b2i(ns.mark != stamp)
					if s == d {
						return cc.pause(buf[:top], id, i, count, true)
					}
				}
			}
			stack = buf[:top]
		}
		// Pop the next unmarked node and expand it, within budget.
		for {
			if len(stack) == 0 {
				return cc.pause(stack, id, i, count, false)
			}
			id = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if nodes[id].mark != stamp {
				break
			}
		}
		nodes[id].mark = stamp
		count++
		if count > cc.budget {
			return cc.pause(stack, id, i, count, false)
		}
		i = 0
	}
}

// pause stores the walk's state for the next query and returns hit. A
// walk that did not hit has finished.
func (cc *cycleChecker) pause(stack []netlist.GateID, id netlist.GateID, next int32, count int, hit bool) bool {
	cc.work.Nodes += min(count, cc.budget) - cc.count
	cc.stack, cc.cur, cc.next, cc.count = stack, id, next, count
	cc.done = !hit
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

// b2i is 1 for true and 0 for false; it compiles without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
