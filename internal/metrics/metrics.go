// Package metrics computes the evaluation quantities of Sec. IV:
// correct connection rate (CCR, split into regular, key-logical and
// key-physical per Table I), Hamming distance and output error rate
// (Table II), percentage of netlist recovery (PNR, Table III), and the
// layout cost model behind Fig. 5 (area / power / timing deltas versus
// the unprotected baseline).
package metrics

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/cellib"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/split"
)

// CCR holds the correct-connection-rate family of metrics, as
// fractions in [0,1] (the paper reports percent).
type CCR struct {
	// Regular is the exact-driver match rate over broken regular pins.
	Regular float64
	// KeyPhysical is the rate at which key pins were connected to
	// exactly their original TIE cell instance.
	KeyPhysical float64
	// KeyLogical is the rate at which key pins were connected to any
	// TIE cell of the correct logic value (the paper's headline
	// metric: ~50% means the attacker is at random-guessing level).
	KeyLogical float64
	// RegularPins/KeyPins count the broken pins in each class.
	RegularPins, KeyPins int
}

// ComputeCCR scores an assignment against the secret.
func ComputeCCR(view *split.FEOLView, secret *split.Secret, asg attack.Assignment) CCR {
	c := view.Circuit
	var ccr CCR
	var regOK, physOK, logOK int
	for _, cp := range view.CutPins {
		truth := secret.Assignment[cp.Ref]
		got, assigned := asg[cp.Ref]
		if cp.IsKeyPin {
			ccr.KeyPins++
			if assigned && got == truth {
				physOK++
			}
			if assigned && c.Gate(got).Type.IsTie() && c.Gate(got).Type == c.Gate(truth).Type {
				logOK++
			}
			continue
		}
		ccr.RegularPins++
		if assigned && got == truth {
			regOK++
		}
	}
	if ccr.RegularPins > 0 {
		ccr.Regular = float64(regOK) / float64(ccr.RegularPins)
	}
	if ccr.KeyPins > 0 {
		ccr.KeyPhysical = float64(physOK) / float64(ccr.KeyPins)
		ccr.KeyLogical = float64(logOK) / float64(ccr.KeyPins)
	}
	return ccr
}

// PNR is the percentage-of-netlist-recovery metric of [12]: the
// fraction of gates whose complete fanin the attacker holds correctly
// (uncut pins are FEOL knowledge; cut pins must be assigned to the true
// driver).
func PNR(view *split.FEOLView, secret *split.Secret, asg attack.Assignment) float64 {
	c := view.Circuit
	wrong := make(map[netlist.GateID]bool)
	for _, cp := range view.CutPins {
		truth := secret.Assignment[cp.Ref]
		if got, ok := asg[cp.Ref]; !ok || got != truth {
			wrong[cp.Ref.Gate] = true
		}
	}
	total, correct := 0, 0
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		switch c.Gate(id).Type {
		case netlist.Input, netlist.Output:
			continue
		}
		total++
		if !wrong[id] {
			correct++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(correct) / float64(total)
}

// Functional compares the attacker's recovered netlist against the
// original design and returns HD and OER (Table II) using the default
// simulation worker pool.
func Functional(original *netlist.Circuit, view *split.FEOLView, asg attack.Assignment, patterns int, seed uint64) (sim.DiffStats, error) {
	return FunctionalOpt(original, view, asg, sim.CompareOptions{
		Patterns: patterns,
		Seed:     seed,
	})
}

// FunctionalOpt is Functional with full control over the pattern run
// (pattern count, seed, observables, and the engine worker pool).
func FunctionalOpt(original *netlist.Circuit, view *split.FEOLView, asg attack.Assignment, opt sim.CompareOptions) (sim.DiffStats, error) {
	rec, err := view.Recombine(asg)
	if err != nil {
		return sim.DiffStats{}, fmt.Errorf("metrics: recovered netlist: %w", err)
	}
	return sim.Compare(original, rec, opt)
}

// PPA is the layout cost triple of Fig. 5.
type PPA struct {
	// AreaUM2 is the die outline in um^2.
	AreaUM2 float64
	// PowerNW is total power in nW (leakage + activity-weighted
	// dynamic power over cells and wires).
	PowerNW float64
	// DelayPS is the critical path delay in ps (gate delays with
	// fanout and wire load, plus via-stack delays).
	DelayPS float64
}

// Delta returns the percent change of p versus a baseline (positive =
// more expensive; area savings show up negative, as in Fig. 5).
func (p PPA) Delta(base PPA) (area, power, delay float64) {
	pct := func(v, b float64) float64 {
		if b == 0 {
			return 0
		}
		return (v - b) / b * 100
	}
	return pct(p.AreaUM2, base.AreaUM2), pct(p.PowerNW, base.PowerNW), pct(p.DelayPS, base.DelayPS)
}

// EvaluatePPA measures a placed-and-routed design. Activity is the
// per-net switching activity from sim.ActivityOpt (nil means a flat 0.2).
func EvaluatePPA(lay *layout.Layout, routes *route.Result, activity []float64) (PPA, error) {
	c := lay.Circuit
	pitch := lay.PitchUM()

	// Wire length and via count per net (driver id -> totals).
	wireLen := make([]float64, c.NumIDs())
	viaCnt := make([]int, c.NumIDs())
	for i := range routes.Pins {
		pr := &routes.Pins[i]
		wireLen[pr.Driver] += float64(pr.Length) * pitch
		viaCnt[pr.Driver] += pr.Vias
	}

	var ppa PPA
	ppa.AreaUM2 = lay.DieAreaUM2()

	const defaultActivity = 0.2
	act := func(id netlist.GateID) float64 {
		if activity == nil || int(id) >= len(activity) {
			return defaultActivity
		}
		return activity[id]
	}

	// Power: leakage + per-net dynamic power proportional to activity
	// times (internal energy + load cap), with wire cap from routed
	// length. Units are consistent-relative, which is all Fig. 5 needs.
	const freqGHZ = 1.0
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		g := c.Gate(id)
		if g.Type == netlist.Input || g.Type == netlist.Output {
			continue
		}
		cell := cellib.ForGate(g.Type, len(g.Fanin))
		ppa.PowerNW += cell.Leakage
		loadCap := cellib.FanoutCap(c, id) + wireLen[id]/pitch*cellib.WireCapPerSite
		ppa.PowerNW += act(id) * (cell.InternalEnergy + 0.5*loadCap) * freqGHZ * 10
	}

	// Timing: longest combinational path. Gate delay uses the cell's
	// intrinsic delay plus drive resistance times load (pins + wire);
	// vias add fixed increments.
	order, err := c.TopoOrder()
	if err != nil {
		return PPA{}, err
	}
	arrive := make([]float64, c.NumIDs())
	for _, id := range order {
		g := c.Gate(id)
		if g.Type.IsSource() {
			arrive[id] = 0
			continue
		}
		in := 0.0
		for _, f := range g.Fanin {
			d := arrive[f] + wireDelay(wireLen[f], viaCnt[f])
			if d > in {
				in = d
			}
		}
		cell := cellib.ForGate(g.Type, len(g.Fanin))
		loadCap := cellib.FanoutCap(c, id) + wireLen[id]/pitch*cellib.WireCapPerSite
		arrive[id] = in + cell.GateDelay(loadCap)
		if arrive[id] > ppa.DelayPS {
			ppa.DelayPS = arrive[id]
		}
	}
	return ppa, nil
}

// wireDelay approximates distributed RC wire delay plus via-stack
// delay.
func wireDelay(lenUM float64, vias int) float64 {
	sites := lenUM / cellib.SiteWidth
	return 0.5*cellib.WireResPerSite*cellib.WireCapPerSite*sites*sites + float64(vias)*cellib.ViaDelay
}
