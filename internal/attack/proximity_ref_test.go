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
		pins[i] = scored{pin: cp, cands: nearestRef(idx, cp, candidateLimit)}
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
	chk := newRefCycleChecker(c, cycleBudget)

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

func nearestRef(idx *stubIndex, cp split.CutPin, want int) []candidate {
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
		if cp.Dir != layout.DirNone && cp.Dir == layout.Toward(cp.Stub, ds.Stub) {
			score *= 0.6
		}
		if ds.Dir != layout.DirNone && ds.Dir == layout.Toward(ds.Stub, cp.Stub) {
			score *= 0.6
		}
		if cp.Dir == layout.DirNone && ds.Dir == layout.DirNone {
			score *= 0.5
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

func newRefCycleChecker(c *netlist.Circuit, budget int) *refCycleChecker {
	return &refCycleChecker{c: c, budget: budget, extra: make(map[netlist.GateID][]netlist.GateID)}
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
	if msg := diffAssignment(got, want); msg != "" {
		t.Fatalf("%+v: %s (against the reference)", opt, msg)
	}
}

// checkPairMatches fails t unless ProximityPair returns exactly what
// Proximity returns with KeyPostProcess set and unset, in two maps that
// do not alias each other.
func checkPairMatches(t testing.TB, view *split.FEOLView, opt ProximityOptions) {
	t.Helper()
	postOpt, rawOpt := opt, opt
	postOpt.KeyPostProcess, rawOpt.KeyPostProcess = true, false
	post, raw, err := ProximityPair(view, opt)
	wantPost, perr := Proximity(view, postOpt)
	wantRaw, rerr := Proximity(view, rawOpt)
	if (err == nil) != (perr == nil) || (err == nil) != (rerr == nil) {
		t.Fatalf("%+v: error mismatch: pair %v, single calls %v / %v", opt, err, perr, rerr)
	}
	if err != nil {
		return
	}
	if msg := diffAssignment(post, wantPost); msg != "" {
		t.Fatalf("%+v: post-processed pair result: %s", opt, msg)
	}
	if msg := diffAssignment(raw, wantRaw); msg != "" {
		t.Fatalf("%+v: raw pair result: %s", opt, msg)
	}
	clear(raw)
	if msg := diffAssignment(post, wantPost); msg != "" {
		t.Fatalf("%+v: clearing the raw result changed the post-processed one: %s", opt, msg)
	}
}

// diffAssignment describes the first difference between got and want,
// or returns "" when they are equal.
func diffAssignment(got, want Assignment) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d pins assigned, want %d", len(got), len(want))
	}
	for ref, d := range want {
		if g, ok := got[ref]; !ok || g != d {
			return fmt.Sprintf("pin %v -> %d (present %v), want %d", ref, g, ok, d)
		}
	}
	return ""
}

// proximityOptionGrid is the option set the differential test covers:
// post-processing on and off under each seed.
func proximityOptionGrid() []ProximityOptions {
	var grid []ProximityOptions
	for _, post := range []bool{true, false} {
		for _, seed := range []uint64{7, 8, 9} {
			grid = append(grid, ProximityOptions{Seed: seed, KeyPostProcess: post})
		}
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
				for _, opt := range proximityOptionGrid() {
					checkMatchesReference(t, view, opt)
					checkPairMatches(t, view, opt)
				}
			})
		}
	}
}

// TestProximityPairEmptyView: a view with no cut pins yields two empty
// assignments that are distinct maps.
func TestProximityPairEmptyView(t *testing.T) {
	post, raw, err := ProximityPair(&split.FEOLView{}, ProximityOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if post == nil || raw == nil || len(post) != 0 || len(raw) != 0 {
		t.Fatalf("want two empty assignments, got %v and %v", post, raw)
	}
	raw[split.PinRef{Gate: 1}] = 2
	if len(post) != 0 {
		t.Fatal("the two empty assignments are one map")
	}
}

// FuzzProximityDifferential checks Proximity against proximityRef, and
// ProximityPair against two Proximity calls, on fuzzer-chosen circuits,
// split layers, seeds and post-processing settings. It locks with
// RandomLock, which is far cheaper than ATPG locking, so the fuzzer
// spends its time in the attack.
func FuzzProximityDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(4), true)
	f.Add(uint64(2), uint8(6), false)
	f.Add(uint64(3), uint8(4), false)
	f.Add(uint64(9), uint8(6), true)
	f.Add(uint64(4), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed uint64, layer uint8, post bool) {
		orig, err := bmarks.Generate(bmarks.Spec{Name: "f", Inputs: 16, Outputs: 8, Gates: 100 + int(seed%4)*100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 16, Seed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		view := splitView(t, lk, seed, 4+2*int(layer%2))
		opt := ProximityOptions{Seed: seed >> 3, KeyPostProcess: post}
		checkMatchesReference(t, view, opt)
		checkPairMatches(t, view, opt)
	})
}

// TestNearestMatchesReference pins the bounded-insertion ranking against
// a full stable sort at candidate limits below, at and above the
// attack's own (16).
func TestNearestMatchesReference(t *testing.T) {
	for _, layer := range []int{4, 6} {
		view := referenceView(t, layer)
		idx := newStubIndex(view.DriverStubs)
		for _, want := range []int{1, candidateLimit, 64} {
			top := make([]candidate, min(want, len(view.DriverStubs)))
			for _, cp := range view.CutPins {
				got := idx.nearest(cp, want, top)
				ref := nearestRef(idx, cp, want)
				if len(got) != len(ref) {
					t.Fatalf("M%d limit %d pin %v: %d candidates, reference %d", layer, want, cp.Ref, len(got), len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("M%d limit %d pin %v: candidate %d = %+v, reference %+v", layer, want, cp.Ref, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestCycleCheckerMatchesReference replays a greedy assignment through
// the epoch-marked cycleChecker and the map-based reference side by
// side: every query must agree, and an accepted edge is noted in both.
// Budgets 1 and 8 force the budget-exhaustion exit; 64 finds loops.
func TestCycleCheckerMatchesReference(t *testing.T) {
	for _, layer := range []int{4, 6} {
		view := referenceView(t, layer)
		idx := newStubIndex(view.DriverStubs)
		for _, budget := range []int{1, 8, 64} {
			chk := newCycleChecker(view.Circuit, budget)
			ref := newRefCycleChecker(view.Circuit, budget)
			queries, loops := 0, 0
			for _, cp := range view.CutPins {
				g := cp.Ref.Gate
				for _, cand := range nearestRef(idx, cp, candidateLimit) {
					d := cand.driver
					got, want := chk.createsCycle(g, d), ref.createsCycle(g, d)
					queries++
					if got != want {
						t.Fatalf("M%d budget %d: createsCycle(%d, %d) = %v, reference %v", layer, budget, g, d, got, want)
					}
					if got {
						loops++
						continue
					}
					chk.note(d, g)
					ref.extra[d] = append(ref.extra[d], g)
					break
				}
			}
			if budget == 64 && loops == 0 {
				t.Fatalf("M%d: no query of %d found a loop; the replay checks nothing", layer, queries)
			}
		}
	}
}

// referenceView is the b14 view the unit-level reference tests share.
func referenceView(t *testing.T, layer int) *split.FEOLView {
	t.Helper()
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	orig, err := bmarks.Load("b14", scale)
	if err != nil {
		t.Fatal(err)
	}
	view := atpgView(t, orig, 32, 5, layer)
	if len(view.CutPins) == 0 {
		t.Fatal("view has no cut pins")
	}
	return view
}
