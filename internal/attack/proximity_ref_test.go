package attack

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/bmarks"
	"repro/internal/cellib"
	"repro/internal/layout"
	"repro/internal/locking"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/split"
)

// proximityRef is the straightforward form of Proximity that the
// optimized kernel must reproduce bit for bit: a fresh visited map per
// acyclicity query, a full stable sort of every gathered candidate,
// and TieStubs recomputed wherever it is needed.
func proximityRef(view *split.FEOLView, opt ProximityOptions) (Assignment, error) {
	opt = opt.withDefaults()
	c := view.Circuit
	if len(view.CutPins) == 0 {
		return Assignment{}, nil
	}
	if len(view.DriverStubs) == 0 {
		return nil, fmt.Errorf("attack: no driver stubs to match")
	}

	idx := newStubIndex(view.DriverStubs)
	rng := newRand(opt.Seed)

	type scored struct {
		pin   split.CutPin
		cands []candidate
	}
	pins := make([]scored, len(view.CutPins))
	for i, cp := range view.CutPins {
		pins[i] = scored{pin: cp, cands: nearestRef(idx, cp, opt)}
	}
	sort.SliceStable(pins, func(i, j int) bool {
		si, sj := bestScore(pins[i].cands), bestScore(pins[j].cands)
		if si != sj {
			return si < sj
		}
		return lessPinRef(pins[i].pin.Ref, pins[j].pin.Ref)
	})

	asg := make(Assignment, len(pins))
	load := make(map[netlist.GateID]float64)
	for _, ds := range view.DriverStubs {
		load[ds.Driver] = cellib.FanoutCap(c, ds.Driver)
	}
	chk := &refCycleChecker{c: c, budget: opt.CycleBudget, extra: make(map[netlist.GateID][]netlist.GateID)}

	for _, sp := range pins {
		sinkCell := c.Gate(sp.pin.Ref.Gate)
		pinCap := cellib.ForGate(sinkCell.Type, len(sinkCell.Fanin)).InputCap
		assigned := false
		for _, cand := range sp.cands {
			d := cand.driver
			if !opt.NoLoadConstraint && !driverCanTake(c, d, load[d], pinCap) {
				continue
			}
			if !opt.NoAcyclicConstraint && chk.createsCycle(sp.pin.Ref.Gate, d) {
				continue
			}
			asg[sp.pin.Ref] = d
			load[d] += pinCap
			chk.extra[d] = append(chk.extra[d], sp.pin.Ref.Gate)
			assigned = true
			break
		}
		if !assigned {
			if tie := randomTieRef(view, rng); tie != netlist.InvalidGate {
				asg[sp.pin.Ref] = tie
			} else if len(sp.cands) > 0 {
				asg[sp.pin.Ref] = sp.cands[0].driver
			}
		}
	}

	if opt.KeyPostProcess {
		if ties := view.TieStubs(); len(ties) > 0 {
			for _, cp := range view.KeyPins() {
				d, ok := asg[cp.Ref]
				if ok && c.Gate(d).Type.IsTie() {
					continue
				}
				asg[cp.Ref] = ties[rng.intn(len(ties))].Driver
			}
		}
	}
	repairCyclesRef(c, view, asg)
	return asg, nil
}

func nearestRef(idx *stubIndex, cp split.CutPin, opt ProximityOptions) []candidate {
	want := opt.CandidateLimit
	var found []int
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
					break
				}
			}
		}
		if len(found) >= want*3 && r > 1 {
			break
		}
	}
	cands := make([]candidate, 0, len(found))
	for _, si := range found {
		ds := idx.stubs[si]
		score := float64(cp.Stub.Dist(ds.Stub))
		if !opt.NoDirectionHints {
			if cp.Dir != layout.DirNone && cp.Dir == layout.Toward(cp.Stub, ds.Stub) {
				score *= 0.6
			}
			if ds.Dir != layout.DirNone && ds.Dir == layout.Toward(ds.Stub, cp.Stub) {
				score *= 0.6
			}
			if cp.Dir == layout.DirNone && ds.Dir == layout.DirNone {
				score *= 0.5
			}
		}
		cands = append(cands, candidate{driver: ds.Driver, score: score})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].driver < cands[j].driver
	})
	if len(cands) > want {
		cands = cands[:want]
	}
	return cands
}

type refCycleChecker struct {
	c      *netlist.Circuit
	budget int
	extra  map[netlist.GateID][]netlist.GateID
}

func (cc *refCycleChecker) createsCycle(g, d netlist.GateID) bool {
	if cc.c.Gate(d).Type.IsSource() {
		return false
	}
	if g == d {
		return true
	}
	visited := make(map[netlist.GateID]bool, 64)
	stack := []netlist.GateID{g}
	nodes := 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[id] {
			continue
		}
		visited[id] = true
		nodes++
		if nodes > cc.budget {
			return false
		}
		for _, s := range cc.c.Fanouts(id) {
			if cc.c.Gate(s).Type == netlist.DFF {
				continue
			}
			if s == d {
				return true
			}
			if !visited[s] {
				stack = append(stack, s)
			}
		}
		for _, s := range cc.extra[id] {
			if s == d {
				return true
			}
			if !visited[s] {
				stack = append(stack, s)
			}
		}
	}
	return false
}

func repairCyclesRef(c *netlist.Circuit, view *split.FEOLView, asg Assignment) {
	safe := netlist.InvalidGate
	if ties := view.TieStubs(); len(ties) > 0 {
		safe = ties[0].Driver
	} else if ins := c.Inputs(); len(ins) > 0 {
		safe = ins[0]
	}
	if safe == netlist.InvalidGate {
		return
	}
	for iter := 0; iter < 64; iter++ {
		stuck := cyclicGatesRef(c, asg)
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

func cyclicGatesRef(c *netlist.Circuit, asg Assignment) map[netlist.GateID]bool {
	override := make(map[split.PinRef]netlist.GateID, len(asg))
	for k, v := range asg {
		override[k] = v
	}
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
		for pin, f := range g.Fanin {
			if d, ok := override[split.PinRef{Gate: id, Pin: pin}]; ok {
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

func randomTieRef(view *split.FEOLView, rng *xrand) netlist.GateID {
	ties := view.TieStubs()
	if len(ties) == 0 {
		return netlist.InvalidGate
	}
	return ties[rng.intn(len(ties))].Driver
}

// atpgView builds the FEOL view the table flow attacks: ATPG-locked,
// placed with randomized TIE cells, routed with key-nets lifted above
// the split layer.
func atpgView(t testing.TB, c *netlist.Circuit, keyBits int, seed uint64, layer int) *split.FEOLView {
	t.Helper()
	lk, _, err := locking.ATPGLock(c, locking.ATPGLockOptions{KeyBits: keyBits, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return splitView(t, lk, seed, layer)
}

// splitView places, routes and splits a locked circuit as the flow does.
func splitView(t testing.TB, lk *locking.Locked, seed uint64, layer int) *split.FEOLView {
	t.Helper()
	lay, err := place.Place(lk.Circuit, place.Options{Seed: seed + 1, RandomizeTies: true})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := route.RouteAll(lay, route.Options{SplitLayer: layer, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := split.Split(lay, routes)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// checkMatchesReference fails t unless Proximity and proximityRef agree
// exactly on view under opt.
func checkMatchesReference(t testing.TB, view *split.FEOLView, opt ProximityOptions) {
	t.Helper()
	got, gerr := Proximity(view, opt)
	want, werr := proximityRef(view, opt)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%+v: error mismatch: got %v, reference %v", opt, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%+v: %d pins assigned, reference assigns %d", opt, len(got), len(want))
	}
	for ref, d := range want {
		if g, ok := got[ref]; !ok || g != d {
			t.Fatalf("%+v: pin %v -> %d (present %v), reference %d", opt, ref, g, ok, d)
		}
	}
}

// proximityOptionGrid is the option set the differential test covers,
// with post-processing on and off: each candidate limit at the default
// cycle budget (4096), each smaller budget at the default limit (budgets
// 1 and 8 force the budget-exhaustion exit), and each constraint
// switched off on its own.
func proximityOptionGrid(seed uint64) []ProximityOptions {
	var grid []ProximityOptions
	for _, post := range []bool{true, false} {
		for _, limit := range []int{1, 16, 64} {
			grid = append(grid, ProximityOptions{Seed: seed, KeyPostProcess: post, CandidateLimit: limit, CycleBudget: 4096})
		}
		for _, budget := range []int{1, 8, 64} {
			grid = append(grid, ProximityOptions{Seed: seed, KeyPostProcess: post, CycleBudget: budget})
		}
		grid = append(grid,
			ProximityOptions{Seed: seed, KeyPostProcess: post, NoDirectionHints: true},
			ProximityOptions{Seed: seed, KeyPostProcess: post, NoLoadConstraint: true},
			ProximityOptions{Seed: seed, KeyPostProcess: post, NoAcyclicConstraint: true},
		)
	}
	return grid
}

func TestProximityMatchesReference(t *testing.T) {
	type viewSpec struct {
		bench string
		scale float64
		keys  int
	}
	specs := []viewSpec{{"b14", 0.05, 32}, {"c880", 1, 32}}
	if testing.Short() {
		specs = []viewSpec{{"b14", 0.02, 16}, {"c432", 1, 16}}
	}
	for _, vs := range specs {
		orig, err := bmarks.Load(vs.bench, vs.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range []int{4, 6} {
			view := atpgView(t, orig, vs.keys, 5, layer)
			t.Run(fmt.Sprintf("%s/M%d", vs.bench, layer), func(t *testing.T) {
				if len(view.CutPins) == 0 {
					t.Fatal("view has no cut pins to attack")
				}
				for _, opt := range proximityOptionGrid(7) {
					checkMatchesReference(t, view, opt)
				}
			})
		}
	}
}

// FuzzProximityDifferential checks Proximity against proximityRef on
// fuzzer-chosen circuits, split layers and option combinations. It
// locks with RandomLock, which is far cheaper than ATPG locking, so the
// fuzzer spends its time in the attack. The candidate limit spans
// 0–255, which on these small views often exceeds the stub count.
func FuzzProximityDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0x01), uint8(16), uint16(4096))
	f.Add(uint64(2), uint8(6), uint8(0x00), uint8(1), uint16(1))
	f.Add(uint64(3), uint8(4), uint8(0x0e), uint8(64), uint16(8))
	f.Add(uint64(9), uint8(6), uint8(0x05), uint8(3), uint16(64))
	f.Add(uint64(4), uint8(4), uint8(0x01), uint8(255), uint16(8))
	f.Fuzz(func(t *testing.T, seed uint64, layer, flags, limit uint8, budget uint16) {
		orig, err := bmarks.Generate(bmarks.Spec{Name: "f", Inputs: 16, Outputs: 8, Gates: 100 + int(seed%4)*100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 16, Seed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		view := splitView(t, lk, seed, 4+2*int(layer%2))
		checkMatchesReference(t, view, ProximityOptions{
			Seed:                seed >> 3,
			KeyPostProcess:      flags&0x01 != 0,
			NoDirectionHints:    flags&0x02 != 0,
			NoLoadConstraint:    flags&0x04 != 0,
			NoAcyclicConstraint: flags&0x08 != 0,
			CandidateLimit:      int(limit),
			CycleBudget:         int(budget % 8192),
		})
	})
}
