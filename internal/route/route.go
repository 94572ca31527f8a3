// Package route implements the global routing stage of the Fig. 3
// layout flow. Every driver→sink connection is routed as an L-shape on
// a layer pair chosen by net length (short nets stay on M2/M3, longer
// nets ascend to M4/M5 or M6/M7), with a coarse congestion model that
// detours or promotes nets when tiles overflow.
//
// The security-critical behaviour is key-net lifting: nets driven by
// TIE cells are routed as new nets entirely above the split layer,
// reaching their pins through stacked vias placed directly on the pin
// coordinates — no FEOL wiring, no direction hint, exactly the
// construction of Fig. 2(c). Key-nets are routed first; regular nets
// then re-route around the consumed BEOL capacity (the ECO-route step),
// which is the mechanism behind the paper's Fig. 5 power overheads.
package route

import (
	"fmt"
	"sort"

	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Options configures routing.
type Options struct {
	// SplitLayer is the first BEOL layer (the paper evaluates 4 and
	// 6). A connection whose route touches a layer >= SplitLayer is
	// broken by the split.
	SplitLayer int
	// LiftKeyNets routes TIE-driven nets wholly above the split layer
	// via stacked vias (the paper's defense). Disabled for the
	// "prelift" reference layouts.
	LiftKeyNets bool
	// TileSize is the congestion tile edge in grid units (default 8).
	TileSize int
	// TileCapacity is the per-tile, per-layer-pair track capacity
	// (default 24).
	TileCapacity int
	// EscapeFrac is the fraction of a broken net's length routed in
	// the FEOL before it ascends above the split layer. Higher split
	// layers leave more of the route (and therefore more hints) in the
	// FEOL — the effect behind the paper's observation that regular-net
	// CCR grows with the split layer. 0 derives it from SplitLayer
	// (0.05 + 0.06 × SplitLayer, capped at 0.45).
	EscapeFrac float64
	// PromoteProb is the probability that a net is assigned one layer
	// pair above its length class, as commercial routers do for timing
	// and congestion balancing. Promoted short nets are the easily
	// re-inferred part of the broken-net population (their stubs sit
	// nearly on top of each other). Default 0.25.
	PromoteProb float64
	// Seed drives the promotion decisions.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.SplitLayer == 0 {
		o.SplitLayer = 4
	}
	if o.TileSize <= 0 {
		o.TileSize = 8
	}
	if o.TileCapacity <= 0 {
		o.TileCapacity = 24
	}
	if o.EscapeFrac <= 0 {
		o.EscapeFrac = 0.05 + 0.06*float64(o.SplitLayer)
		if o.EscapeFrac > 0.45 {
			o.EscapeFrac = 0.45
		}
	}
	if o.PromoteProb <= 0 {
		o.PromoteProb = 0.25
	}
	return o
}

// numPairs is the number of horizontal/vertical layer pairs:
// pair p occupies metal layers 2p+2 and 2p+3 (M2/M3 .. M8/M9).
const numPairs = 4

// pairBottom returns the lower metal layer of a pair.
func pairBottom(p int) int { return 2*p + 2 }

// pairTop returns the upper metal layer of a pair.
func pairTop(p int) int { return 2*p + 3 }

// PinRoute is the routed connection from a net's driver to one sink
// pin.
type PinRoute struct {
	Driver netlist.GateID
	Sink   netlist.GateID
	Pin    int

	// Pair is the layer pair index; Lifted key-nets use KeyLayer
	// instead.
	Pair   int
	Lifted bool
	// KeyLayer is the single routing layer of a lifted key-net
	// (split+1).
	KeyLayer int

	Length int // total routed wirelength in grid units
	Detour int // congestion-induced extra length included in Length
	Vias   int

	// AscendAt/DescendAt are the via-stack coordinates visible in the
	// FEOL when the connection is broken by the split. For lifted
	// key-nets they coincide exactly with the pin coordinates.
	AscendAt, DescendAt layout.Point
	// AscendDir/DescendDir are the directions of the last FEOL
	// segments (escape routing) — the hints a proximity attacker
	// exploits. DirNone for lifted key-nets (stacked via directly on
	// the pin).
	AscendDir, DescendDir layout.Direction
}

// Cut reports whether the split at the given layer breaks this
// connection.
func (pr *PinRoute) Cut(splitLayer int) bool {
	if pr.Lifted {
		return true
	}
	return pairTop(pr.Pair) >= splitLayer
}

// Result is the routed design.
type Result struct {
	Opt  Options
	Pins []PinRoute
	// TotalLength/TotalVias aggregate all connections.
	TotalLength int
	TotalVias   int
	TotalDetour int
	// OverflowAccepts counts connections placed into over-capacity
	// tiles after exhausting promotion options.
	OverflowAccepts int
	// KeyNets is the number of lifted connections.
	KeyNets int
}

// CutPins returns the indices of connections broken by the configured
// split layer.
func (r *Result) CutPins() []int {
	var out []int
	for i := range r.Pins {
		if r.Pins[i].Cut(r.Opt.SplitLayer) {
			out = append(out, i)
		}
	}
	return out
}

// RouteAll routes every live connection of the placed design.
func RouteAll(lay *layout.Layout, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	c := lay.Circuit
	res := &Result{Opt: opt}

	type conn struct {
		driver, sink netlist.GateID
		pin          int
		length       int
		key          bool
	}
	var conns []conn
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		g := c.Gate(id)
		for pin, f := range g.Fanin {
			if !lay.Cells[f].Placed || !lay.Cells[id].Placed {
				return nil, fmt.Errorf("route: unplaced gate on net %d→%d", f, id)
			}
			l := lay.Pos(f).Dist(lay.Pos(id))
			isKey := opt.LiftKeyNets && c.Gate(f).Type.IsTie()
			conns = append(conns, conn{driver: f, sink: id, pin: pin, length: l, key: isKey})
		}
	}
	// Key-nets first (they claim BEOL capacity), then regular nets by
	// descending length (long nets route first, standard practice).
	sort.SliceStable(conns, func(i, j int) bool {
		if conns[i].key != conns[j].key {
			return conns[i].key
		}
		return conns[i].length > conns[j].length
	})

	cong := newCongestion(lay, opt)
	rng := sim.NewRand(opt.Seed ^ 0x70f3)
	// Layer-pair thresholds scale with the die.
	t1 := lay.W / 12
	if t1 < 4 {
		t1 = 4
	}
	t2 := lay.W / 4
	if t2 < 10 {
		t2 = 10
	}

	for _, cn := range conns {
		dp, sp := lay.Pos(cn.driver), lay.Pos(cn.sink)
		if cn.key {
			pr := routeKeyNet(cn.driver, cn.sink, cn.pin, dp, sp, opt)
			cong.add(keyPairIndex(opt), dp, sp)
			res.KeyNets++
			res.Pins = append(res.Pins, pr)
			continue
		}
		pair := 0
		switch {
		case cn.length <= t1:
			pair = 0
		case cn.length <= t2:
			pair = 1
		default:
			pair = 2
		}
		// Timing/congestion-driven promotion: some nets ride one pair
		// higher than their length class.
		if pair < 2 && rng.Float64() < opt.PromoteProb {
			pair++
		}
		// Congestion: promote to higher pairs when the natural pair is
		// full. Promotion is not free — the ECO re-route takes scenic
		// detours around the occupied region (10% extra length per
		// level) and a fully congested stack costs 25%.
		chosen := pair
		detour := 0
		for ; chosen < numPairs; chosen++ {
			if cong.fits(chosen, dp, sp) {
				break
			}
		}
		if chosen == numPairs {
			chosen = pair
			detour = cn.length / 4
			res.OverflowAccepts++
		} else {
			detour = (chosen - pair) * cn.length / 10
		}
		cong.add(chosen, dp, sp)
		pr := routeRegular(cn.driver, cn.sink, cn.pin, dp, sp, chosen, detour, opt)
		res.Pins = append(res.Pins, pr)
	}
	for i := range res.Pins {
		res.TotalLength += res.Pins[i].Length
		res.TotalVias += res.Pins[i].Vias
		res.TotalDetour += res.Pins[i].Detour
	}
	return res, nil
}

// keyPairIndex returns the congestion pair whose layers host lifted
// key-nets (the pair containing split+1).
func keyPairIndex(opt Options) int {
	p := (opt.SplitLayer + 1 - 2) / 2
	if p < 0 {
		p = 0
	}
	if p >= numPairs {
		p = numPairs - 1
	}
	return p
}

func routeKeyNet(driver, sink netlist.GateID, pin int, dp, sp layout.Point, opt Options) PinRoute {
	kl := opt.SplitLayer + 1
	// Stacked vias from M1 pin straight up to the key layer on both
	// ends; L-shape on the key layer.
	vias := 2 * (kl - 1)
	return PinRoute{
		Driver: driver, Sink: sink, Pin: pin,
		Lifted: true, KeyLayer: kl,
		Length:    dp.Dist(sp),
		Vias:      vias,
		AscendAt:  dp,
		DescendAt: sp,
		AscendDir: layout.DirNone, DescendDir: layout.DirNone,
	}
}

func routeRegular(driver, sink netlist.GateID, pin int, dp, sp layout.Point, pair, detour int, opt Options) PinRoute {
	length := dp.Dist(sp) + detour
	bottom := pairBottom(pair)
	vias := 2 * (bottom - 1)
	pr := PinRoute{
		Driver: driver, Sink: sink, Pin: pin,
		Pair:   pair,
		Length: length,
		Detour: detour,
		Vias:   vias,
	}
	// Escape routing: the first/last EscapeFrac of the route stays in
	// the FEOL heading toward the other end; the ascent points (and
	// their directions) are what an attacker sees after the split.
	e := int(opt.EscapeFrac * float64(dp.Dist(sp)))
	pr.AscendAt = stepToward(dp, sp, e)
	pr.DescendAt = stepToward(sp, dp, e)
	pr.AscendDir = layout.Toward(dp, sp)
	pr.DescendDir = layout.Toward(sp, dp)
	return pr
}

// stepToward moves n grid units from p toward q, X axis first (the
// L-shape escape).
func stepToward(p, q layout.Point, n int) layout.Point {
	for n > 0 {
		switch {
		case p.X < q.X:
			p.X++
		case p.X > q.X:
			p.X--
		case p.Y < q.Y:
			p.Y++
		case p.Y > q.Y:
			p.Y--
		default:
			return p
		}
		n--
	}
	return p
}

// congestion tracks per-tile, per-pair usage.
type congestion struct {
	tilesX, tilesY int
	tileSize       int
	capacity       int
	use            [][]int16 // [pair][tile]
}

func newCongestion(lay *layout.Layout, opt Options) *congestion {
	tx := (lay.W + opt.TileSize - 1) / opt.TileSize
	ty := (lay.H + opt.TileSize - 1) / opt.TileSize
	if tx < 1 {
		tx = 1
	}
	if ty < 1 {
		ty = 1
	}
	cg := &congestion{tilesX: tx, tilesY: ty, tileSize: opt.TileSize, capacity: opt.TileCapacity}
	for p := 0; p < numPairs; p++ {
		cg.use = append(cg.use, make([]int16, tx*ty))
	}
	return cg
}

func (cg *congestion) tileOf(p layout.Point) int {
	x := clamp(p.X/cg.tileSize, 0, cg.tilesX-1)
	y := clamp(p.Y/cg.tileSize, 0, cg.tilesY-1)
	return y*cg.tilesX + x
}

// tilesOnPath enumerates the tiles an L-shaped route from a to b
// crosses (x leg then y leg).
func (cg *congestion) tilesOnPath(a, b layout.Point) []int {
	seen := map[int]bool{}
	var out []int
	addPoint := func(p layout.Point) {
		t := cg.tileOf(p)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	p := a
	addPoint(p)
	for p.X != b.X {
		if p.X < b.X {
			p.X += min(cg.tileSize, b.X-p.X)
		} else {
			p.X -= min(cg.tileSize, p.X-b.X)
		}
		addPoint(p)
	}
	for p.Y != b.Y {
		if p.Y < b.Y {
			p.Y += min(cg.tileSize, b.Y-p.Y)
		} else {
			p.Y -= min(cg.tileSize, p.Y-b.Y)
		}
		addPoint(p)
	}
	return out
}

// fits reports whether the route fits without exceeding capacity in
// more than half of its tiles.
func (cg *congestion) fits(pair int, a, b layout.Point) bool {
	tiles := cg.tilesOnPath(a, b)
	over := 0
	for _, t := range tiles {
		if int(cg.use[pair][t]) >= cg.capacity {
			over++
		}
	}
	return over*2 <= len(tiles)
}

func (cg *congestion) add(pair int, a, b layout.Point) {
	for _, t := range cg.tilesOnPath(a, b) {
		cg.use[pair][t]++
	}
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
