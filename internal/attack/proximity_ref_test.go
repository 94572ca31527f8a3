package attack

import (
	"cmp"
	"fmt"
	"slices"
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

	rng := newRand(opt.Seed)
	rr := newRefRanker(view.DriverStubs)

	type scored struct {
		pin   split.CutPin
		cands []candidate
	}
	pins := make([]scored, len(view.CutPins))
	for i, cp := range view.CutPins {
		pins[i] = scored{pin: cp, cands: rr.nearest(cp, candidateLimit)}
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

// refRanker is the reference candidate ranking. It reads nothing but
// the driver stubs: the gather radius (the first ring of 8×8 tiles
// around the pin's tile, past ring 1, by which the rings hold at least
// 3×want stubs, capped at tx+ty+1), then a full stable sort of every
// stub within it.
type refRanker struct {
	stubs        []split.DriverStub
	minX, minY   int
	tx, ty       int
	tileX, tileY []int // each stub's tile
	ring         []int // scratch: each stub's ring around the current pin
}

// refTile is the reference's tile side, the index's 8.
const refTile = 8

func newRefRanker(stubs []split.DriverStub) *refRanker {
	rr := &refRanker{stubs: stubs, minX: stubs[0].Stub.X, minY: stubs[0].Stub.Y}
	maxX, maxY := rr.minX, rr.minY
	for _, s := range stubs {
		rr.minX, rr.minY = min(rr.minX, s.Stub.X), min(rr.minY, s.Stub.Y)
		maxX, maxY = max(maxX, s.Stub.X), max(maxY, s.Stub.Y)
	}
	rr.tx, rr.ty = (maxX-rr.minX)/refTile+1, (maxY-rr.minY)/refTile+1
	for _, s := range stubs {
		rr.tileX = append(rr.tileX, (s.Stub.X-rr.minX)/refTile)
		rr.tileY = append(rr.tileY, (s.Stub.Y-rr.minY)/refTile)
	}
	rr.ring = make([]int, len(stubs))
	return rr
}

func (rr *refRanker) nearest(cp split.CutPin, want int) []candidate {
	cx, cy := (cp.Stub.X-rr.minX)/refTile, (cp.Stub.Y-rr.minY)/refTile
	perRing := make([]int, rr.tx+rr.ty+2)
	for i := range rr.stubs {
		rr.ring[i] = abs(rr.tileX[i]-cx) + abs(rr.tileY[i]-cy)
		if rr.ring[i] < len(perRing) {
			perRing[rr.ring[i]]++
		}
	}
	radius, found := len(perRing)-1, 0
	for r, n := range perRing {
		found += n
		if found >= want*3 && r > 1 {
			radius = r
			break
		}
	}
	var cands []candidate
	for i, ds := range rr.stubs {
		if rr.ring[i] > radius {
			continue
		}
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
	slices.SortStableFunc(cands, func(a, b candidate) int {
		if c := cmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		return cmp.Compare(a.driver, b.driver)
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
	// queries and capHits count what LoopCheckWork counts.
	queries, capHits int
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
	cc.queries++
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
			cc.capHits++
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

// TestNearestMatchesReference pins the pruned, bounded-insertion
// ranking against refRanker, which gathers and fully sorts from the
// driver stubs alone, at candidate limits below, at and above the
// attack's own (16). The dense case is the paper's cell (b14 ×1.0 with
// a 128-bit key, split at M4; ×0.3 under -short), where pruning must
// skip tiles for the check to cover it.
func TestNearestMatchesReference(t *testing.T) {
	type viewCase struct {
		name  string
		view  *split.FEOLView
		dense bool
	}
	var cases []viewCase
	for _, layer := range []int{4, 6} {
		cases = append(cases, viewCase{name: fmt.Sprintf("M%d", layer), view: referenceView(t, layer)})
	}
	scale := 1.0
	if testing.Short() {
		scale = 0.3
	}
	orig, err := bmarks.Load("b14", scale)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, viewCase{name: fmt.Sprintf("b14x%g/M4", scale), view: atpgView(t, orig, 128, 1, 4), dense: true})
	for _, vc := range cases {
		for _, want := range []int{1, candidateLimit, 64} {
			t.Run(fmt.Sprintf("%s/limit=%d", vc.name, want), func(t *testing.T) {
				t.Parallel()
				view := vc.view
				idx, rr := newStubIndex(view.DriverStubs), newRefRanker(view.DriverStubs)
				top := make([]candidate, min(want, len(view.DriverStubs)))
				for _, cp := range view.CutPins {
					got := idx.nearest(cp, want, top)
					ref := rr.nearest(cp, want)
					if len(got) != len(ref) {
						t.Fatalf("pin %v: %d candidates, reference %d", cp.Ref, len(got), len(ref))
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("pin %v: candidate %d = %+v, reference %+v", cp.Ref, i, got[i], ref[i])
						}
					}
				}
				t.Logf("%d pins, %.1f stubs scored per pin, %d tiles skipped",
					len(view.CutPins), float64(idx.scored)/float64(len(view.CutPins)), idx.skipped)
				if vc.dense && idx.skipped == 0 {
					t.Fatal("pruning skipped no tile; the dense case checks nothing")
				}
			})
		}
	}
}

// TestCycleCheckerMatchesReference replays a greedy assignment through
// the kept-walk cycleChecker and the map-based reference side by side:
// every query must agree, and an accepted edge is noted in both.
// Budgets 1 and 8 force the budget-exhaustion exit; 64 finds loops;
// 4096 is the attack's own. The second replay drives the kept walk
// through each of its paths: see replayKeptWalk.
func TestCycleCheckerMatchesReference(t *testing.T) {
	for _, layer := range []int{4, 6} {
		view := referenceView(t, layer)
		rr := newRefRanker(view.DriverStubs)
		for _, budget := range []int{1, 8, 64, cycleBudget} {
			chk := newCycleChecker(view.Circuit, budget)
			ref := newRefCycleChecker(view.Circuit, budget)
			queries, loops := 0, 0
			for _, cp := range view.CutPins {
				g := cp.Ref.Gate
				for _, cand := range rr.nearest(cp, candidateLimit) {
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
			checkLoopWork(t, chk, ref, budget)
		}
		for _, budget := range []int{8, 64, cycleBudget} {
			t.Run(fmt.Sprintf("M%d/kept/budget=%d", layer, budget), func(t *testing.T) {
				replayKeptWalk(t, view, rr, budget)
			})
		}
	}
}

// replayKeptWalk checks the kept walk against the reference with the
// query mix the greedy loop rarely makes. Per cut pin, with sink g:
//   - every candidate is queried, so repeated queries from g follow
//     both hits (the walk resumes mid-node) and false answers;
//   - g's FEOL fanouts, which the walk scanned when it expanded g, are
//     queried (the seen-stamp answer);
//   - an edge out of g and one out of another node the walk expanded
//     are noted in both checkers, to a candidate that was answered
//     false, and g is re-queried for it (the walk must be dropped);
//   - the first candidate answered false that no note took is then
//     assigned, as in the attack.
func replayKeptWalk(t *testing.T, view *split.FEOLView, rr *refRanker, budget int) {
	c := view.Circuit
	chk := newCycleChecker(c, budget)
	ref := newRefCycleChecker(c, budget)
	check := func(g, d netlist.GateID) bool {
		t.Helper()
		got, want := chk.createsCycle(g, d), ref.createsCycle(g, d)
		if got != want {
			t.Fatalf("createsCycle(%d, %d) = %v, reference %v", g, d, got, want)
		}
		return got
	}
	note := func(u, v netlist.GateID) {
		chk.note(u, v)
		ref.extra[u] = append(ref.extra[u], v)
	}
	var midNode, scannedHits, dropHits int
	for _, cp := range view.CutPins {
		g := cp.Ref.Gate
		var free []netlist.GateID
		for _, cand := range rr.nearest(cp, candidateLimit) {
			if chk.sink == g && !chk.done && chk.cur != netlist.InvalidGate {
				midNode++
			}
			if !check(g, cand.driver) && !c.Gate(cand.driver).Type.IsSource() {
				free = append(free, cand.driver)
			}
		}
		if chk.sink == g {
			for _, s := range c.Fanouts(g) {
				if c.Gate(s).Type != netlist.DFF && chk.nodes[s].seen == chk.stamp && check(g, s) {
					scannedHits++
				}
			}
		}
		// Note edges out of expanded nodes: g first, then a node two
		// steps down that the walk marked.
		for _, u := range []netlist.GateID{g, expandedBelow(chk, c, g)} {
			if len(free) == 0 || u == netlist.InvalidGate || chk.sink != g || chk.nodes[u].mark != chk.stamp {
				continue
			}
			v := free[len(free)-1]
			free = free[:len(free)-1]
			note(u, v)
			if check(g, v) {
				dropHits++
			}
		}
		if len(free) > 0 {
			note(free[0], g)
		}
	}
	checkLoopWork(t, chk, ref, budget)
	t.Logf("%d queries resumed mid-node, %d scanned-successor hits, %d re-queries true after a noted edge", midNode, scannedHits, dropHits)
	if midNode == 0 || scannedHits == 0 || dropHits == 0 {
		t.Fatal("the replay never resumed mid-node, answered from the seen stamps or re-queried after a noted edge; it checks nothing")
	}
}

// checkLoopWork holds the checker's query and cap-hit counts to the
// reference's; a small budget must hit the cap, or the count is
// untested.
func checkLoopWork(t *testing.T, chk *cycleChecker, ref *refCycleChecker, budget int) {
	t.Helper()
	if chk.work.Queries != ref.queries || chk.work.CapHits != ref.capHits {
		t.Fatalf("budget %d: %d queries, %d cap hits; reference %d, %d", budget, chk.work.Queries, chk.work.CapHits, ref.queries, ref.capHits)
	}
	if budget <= 8 && ref.capHits == 0 {
		t.Fatalf("budget %d: no query hit the cap; the cap-hit count is untested", budget)
	}
}

// expandedBelow returns a node other than g that the kept walk from g
// has marked, found among the FEOL fanouts of g's fanouts, or
// InvalidGate.
func expandedBelow(chk *cycleChecker, c *netlist.Circuit, g netlist.GateID) netlist.GateID {
	for _, s := range c.Fanouts(g) {
		for _, u := range c.Fanouts(s) {
			if u != g && chk.nodes[u].mark == chk.stamp {
				return u
			}
		}
	}
	return netlist.InvalidGate
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
