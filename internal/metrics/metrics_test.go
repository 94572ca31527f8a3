package metrics

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/locking"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/split"
)

func pipeline(t *testing.T, gates, keyBits int, seed uint64) (*netlist.Circuit, *split.FEOLView, *split.Secret, *route.Result, *locking.Locked) {
	t.Helper()
	orig, err := bmarks.Generate(bmarks.Spec{Name: "m", Inputs: 16, Outputs: 8, Gates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: keyBits, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := place.Place(lk.Circuit, place.Options{Seed: seed + 2, RandomizeTies: true})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := route.RouteAll(lay, route.Options{SplitLayer: 4, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	view, secret, err := split.Split(lay, routes)
	if err != nil {
		t.Fatal(err)
	}
	_ = lay
	return orig, view, secret, routes, lk
}

func TestCCRPerfectAssignment(t *testing.T) {
	_, view, secret, _, _ := pipeline(t, 600, 16, 1)
	asg := make(attack.Assignment, len(secret.Assignment))
	for k, v := range secret.Assignment {
		asg[k] = v
	}
	ccr := ComputeCCR(view, secret, asg)
	if ccr.Regular != 1 || ccr.KeyPhysical != 1 || ccr.KeyLogical != 1 {
		t.Fatalf("perfect assignment scored %+v", ccr)
	}
	if PNR(view, secret, asg) != 1 {
		t.Fatal("perfect PNR should be 1")
	}
}

func TestCCREmptyAssignment(t *testing.T) {
	_, view, secret, _, _ := pipeline(t, 600, 16, 2)
	ccr := ComputeCCR(view, secret, attack.Assignment{})
	if ccr.Regular != 0 || ccr.KeyPhysical != 0 || ccr.KeyLogical != 0 {
		t.Fatalf("empty assignment scored %+v", ccr)
	}
	if ccr.KeyPins != 16 {
		t.Fatalf("key pin count %d, want 16", ccr.KeyPins)
	}
	pnr := PNR(view, secret, attack.Assignment{})
	if pnr >= 1 {
		t.Fatal("PNR of empty assignment must be below 1")
	}
}

func TestCCRLogicalVsPhysical(t *testing.T) {
	_, view, secret, _, _ := pipeline(t, 800, 32, 3)
	// Assign every key pin to a TIE of the correct polarity but (where
	// possible) not the original instance.
	c := view.Circuit
	asg := make(attack.Assignment)
	for k, v := range secret.Assignment {
		asg[k] = v
	}
	swapped := 0
	for _, cp := range view.KeyPins() {
		truth := secret.Assignment[cp.Ref]
		for _, ds := range view.TieStubs() {
			if ds.Driver != truth && c.Gate(ds.Driver).Type == c.Gate(truth).Type {
				asg[cp.Ref] = ds.Driver
				swapped++
				break
			}
		}
	}
	if swapped == 0 {
		t.Skip("no same-polarity alternatives")
	}
	ccr := ComputeCCR(view, secret, asg)
	if ccr.KeyLogical != 1 {
		t.Fatalf("logical CCR %.2f, want 1 (all polarities correct)", ccr.KeyLogical)
	}
	if ccr.KeyPhysical > 0.5 {
		t.Fatalf("physical CCR %.2f despite swapping %d pins", ccr.KeyPhysical, swapped)
	}
}

func TestFunctionalPerfectRecovery(t *testing.T) {
	orig, view, secret, _, _ := pipeline(t, 600, 16, 4)
	asg := make(attack.Assignment)
	for k, v := range secret.Assignment {
		asg[k] = v
	}
	d, err := FunctionalOpt(orig, view, asg, sim.CompareOptions{Patterns: 4096, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.HD != 0 || d.OER != 0 {
		t.Fatalf("true assignment gives HD=%v OER=%v", d.HD, d.OER)
	}
}

func TestFunctionalWrongKey(t *testing.T) {
	orig, view, secret, _, _ := pipeline(t, 600, 32, 6)
	asg := attack.Ideal(view, secret, 99)
	d, err := FunctionalOpt(orig, view, asg, sim.CompareOptions{Patterns: 8192, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d.OER == 0 {
		t.Fatal("random key guess produced no output errors")
	}
}

func TestPPAEvaluation(t *testing.T) {
	orig, err := bmarks.Generate(bmarks.Spec{Name: "ppa", Inputs: 16, Outputs: 8, Gates: 800, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := place.Place(orig, place.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := route.RouteAll(lay, route.Options{SplitLayer: 4})
	if err != nil {
		t.Fatal(err)
	}
	act, err := sim.ActivityOpt(orig, sim.ActivityOptions{Patterns: 2048, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ppa, err := EvaluatePPA(lay, routes, act)
	if err != nil {
		t.Fatal(err)
	}
	if ppa.AreaUM2 <= 0 || ppa.PowerNW <= 0 || ppa.DelayPS <= 0 {
		t.Fatalf("non-positive PPA: %+v", ppa)
	}
	// Delta against itself is zero.
	a, p, d := ppa.Delta(ppa)
	if a != 0 || p != 0 || d != 0 {
		t.Fatal("self-delta nonzero")
	}
	// Nil activity fallback works.
	if _, err := EvaluatePPA(lay, routes, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPPADeltaSigns(t *testing.T) {
	base := PPA{AreaUM2: 100, PowerNW: 100, DelayPS: 100}
	mod := PPA{AreaUM2: 90, PowerNW: 120, DelayPS: 106}
	a, p, d := mod.Delta(base)
	if a >= 0 {
		t.Fatal("area saving should be negative")
	}
	if p < 19.9 || p > 20.1 || d < 5.9 || d > 6.1 {
		t.Fatalf("deltas: %v %v %v", a, p, d)
	}
}
