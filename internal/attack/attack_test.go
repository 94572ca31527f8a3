package attack

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/bmarks"
	"repro/internal/locking"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/split"
)

// pipeline builds original → locked → placed → routed → split.
func pipeline(t *testing.T, gates, keyBits int, seed uint64, splitLayer int, randomizeTies, lift bool) (*netlist.Circuit, *locking.Locked, *split.FEOLView, *split.Secret) {
	t.Helper()
	orig, err := bmarks.Generate(bmarks.Spec{Name: "a", Inputs: 16, Outputs: 8, Gates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: keyBits, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := place.Place(lk.Circuit, place.Options{Seed: seed + 2, RandomizeTies: randomizeTies})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := route.RouteAll(lay, route.Options{SplitLayer: splitLayer, LiftKeyNets: lift})
	if err != nil {
		t.Fatal(err)
	}
	view, secret, err := split.Split(lay, routes)
	if err != nil {
		t.Fatal(err)
	}
	return orig, lk, view, secret
}

func TestProximityAssignsEveryPin(t *testing.T) {
	_, _, view, _ := pipeline(t, 800, 32, 10, 4, true, true)
	asg, err := Proximity(view, ProximityOptions{Seed: 1, KeyPostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range view.CutPins {
		if _, ok := asg[cp.Ref]; !ok {
			t.Fatalf("pin %v unassigned", cp.Ref)
		}
	}
	// The recovered netlist must be structurally valid (acyclic).
	if _, err := view.Recombine(asg); err != nil {
		t.Fatalf("recovered netlist invalid: %v", err)
	}
}

func TestProximityKeyPinsRandomized(t *testing.T) {
	// The central security claim: with randomized TIE placement and
	// lifted key-nets, the attack's key assignment is no better than
	// random — physical CCR near zero, logical CCR near 50%.
	_, _, view, secret := pipeline(t, 1200, 48, 20, 4, true, true)
	asg, err := Proximity(view, ProximityOptions{Seed: 2, KeyPostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	phys, logi := 0, 0
	kp := view.KeyPins()
	for _, cp := range kp {
		truth := secret.Assignment[cp.Ref]
		got := asg[cp.Ref]
		if got == truth {
			phys++
		}
		if view.Circuit.Gate(got).Type.IsTie() &&
			view.Circuit.Gate(got).Type == view.Circuit.Gate(truth).Type {
			logi++
		}
	}
	physRate := float64(phys) / float64(len(kp))
	logiRate := float64(logi) / float64(len(kp))
	if physRate > 0.15 {
		t.Errorf("physical CCR %.2f — TIE assignment leaked", physRate)
	}
	if logiRate < 0.25 || logiRate > 0.75 {
		t.Errorf("logical CCR %.2f — should hover near 0.5", logiRate)
	}
	// Post-processing must leave every key pin on a TIE cell.
	for _, cp := range kp {
		if !view.Circuit.Gate(asg[cp.Ref]).Type.IsTie() {
			t.Fatal("key pin not connected to a TIE cell after post-processing")
		}
	}
}

func TestProximityBeatsRandomOnRegularNets(t *testing.T) {
	_, _, view, secret := pipeline(t, 1200, 16, 30, 4, true, true)
	asg, err := Proximity(view, ProximityOptions{Seed: 3, KeyPostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	rnd := RandomGuess(view, 4)
	score := func(a Assignment) float64 {
		ok, n := 0, 0
		for _, cp := range view.RegularPins() {
			n++
			if a[cp.Ref] == secret.Assignment[cp.Ref] {
				ok++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(ok) / float64(n)
	}
	ps, rs := score(asg), score(rnd)
	if ps <= rs {
		t.Errorf("proximity (%.3f) does not beat random guessing (%.3f) on regular nets", ps, rs)
	}
}

func TestNaiveLayoutLeaksKey(t *testing.T) {
	// Ablation (Fig. 2(a)): without TIE randomization and without
	// lifting... key-nets stay in the FEOL entirely, so nothing is
	// even cut. With lifting but naive placement, proximity finds the
	// TIE cells: physical CCR should be clearly above the randomized
	// case.
	_, _, viewNaive, secretNaive := pipeline(t, 1200, 48, 40, 4, false, true)
	asgN, err := Proximity(viewNaive, ProximityOptions{Seed: 5, KeyPostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	physN := 0
	for _, cp := range viewNaive.KeyPins() {
		if asgN[cp.Ref] == secretNaive.Assignment[cp.Ref] {
			physN++
		}
	}
	_, _, viewR, secretR := pipeline(t, 1200, 48, 41, 4, true, true)
	asgR, err := Proximity(viewR, ProximityOptions{Seed: 5, KeyPostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	physR := 0
	for _, cp := range viewR.KeyPins() {
		if asgR[cp.Ref] == secretR.Assignment[cp.Ref] {
			physR++
		}
	}
	if physN <= physR {
		t.Errorf("naive placement (%d correct ties) not worse than randomized (%d)", physN, physR)
	}
}

func TestPreliftNothingToAttack(t *testing.T) {
	// Without lifting, key-nets are short FEOL routes: the key is in
	// plain sight (the split breaks only long regular nets).
	_, _, view, _ := pipeline(t, 800, 32, 50, 4, true, false)
	if kp := view.KeyPins(); len(kp) != 0 {
		// With randomized ties the TIE→key-gate nets are long, so some
		// may still be cut; they would then carry escape hints.
		for _, cp := range kp {
			if cp.Dir == 0 {
				t.Fatal("unlifted key pin has a stacked-via signature")
			}
		}
	}
}

func TestIdealAttackRecoversRegularOnly(t *testing.T) {
	orig, _, view, secret := pipeline(t, 800, 32, 60, 4, true, true)
	asg := Ideal(view, secret, 7)
	for _, cp := range view.RegularPins() {
		if asg[cp.Ref] != secret.Assignment[cp.Ref] {
			t.Fatal("ideal attack must get regular nets right")
		}
	}
	// Keys are guessed: with 32 bits, the odds of a fully correct
	// physical guess are astronomically small.
	allRight := true
	for _, cp := range view.KeyPins() {
		if asg[cp.Ref] != secret.Assignment[cp.Ref] {
			allRight = false
		}
	}
	if allRight {
		t.Fatal("ideal attack guessed the entire key — impossible")
	}
	// The recovered netlist must differ functionally (OER > 0).
	rec, err := view.Recombine(asg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.Compare(orig, rec, sim.CompareOptions{Patterns: 8192, Seed: 8, ObserveState: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.OER == 0 {
		t.Fatal("wrong key guess produced an equivalent circuit")
	}
}

// TestTheorem1BruteForceProperty: across many independent ideal-attack
// runs, the full key is never recovered and per-bit success stays near
// 1/2 — the empirical face of Pr[λ' ≡ λ] ≤ (1/2+ε)^k.
func TestTheorem1BruteForceProperty(t *testing.T) {
	_, _, view, secret := pipeline(t, 800, 16, 70, 4, true, true)
	kp := view.KeyPins()
	if len(kp) != 16 {
		t.Fatalf("expected 16 key pins, got %d", len(kp))
	}
	runs := 300
	fullHits := 0
	bitHits := 0
	for r := 0; r < runs; r++ {
		asg := Ideal(view, secret, uint64(1000+r))
		all := true
		for _, cp := range kp {
			truth := secret.Assignment[cp.Ref]
			got := asg[cp.Ref]
			if view.Circuit.Gate(got).Type == view.Circuit.Gate(truth).Type {
				bitHits++
			} else {
				all = false
			}
			if got != truth {
				all = false
			}
		}
		if all {
			fullHits++
		}
	}
	if fullHits > 0 {
		t.Fatalf("full 16-bit key recovered %d/%d times by random guessing", fullHits, runs)
	}
	rate := float64(bitHits) / float64(runs*len(kp))
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("per-bit logical success rate %.3f, want ≈0.5", rate)
	}
}

func TestSATAttackWithOracleSucceeds(t *testing.T) {
	// With an oracle, the SAT attack recovers a functionally correct
	// key — demonstrating that the security of the scheme rests on the
	// oracle's absence, exactly as Sec. II-C argues.
	orig, err := bmarks.Generate(bmarks.Spec{Name: "sat", Inputs: 10, Outputs: 5, Gates: 120, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 12, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SATAttack(lk, orig, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("SAT attack did not converge in %d iterations", res.Iterations)
	}
	recovered, err := lk.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sim.EquivalentOpt(orig, recovered, sim.CompareOptions{Patterns: 16384, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("SAT-recovered key is not functionally correct")
	}
	t.Logf("SAT attack converged after %d oracle queries", res.Iterations)
}

// TestSATAttackClauseGrowthBounded: the incremental attack encodes the
// keyed copies once; every iteration afterwards adds only blocking
// clauses over the inputs and cofactor-cone consistency constraints.
// All iterations together must stay well below one re-encoding of the
// base (the pre-rewrite attack added TWO full encodings per iteration).
func TestSATAttackClauseGrowthBounded(t *testing.T) {
	orig, err := bmarks.Generate(bmarks.Spec{Name: "satg", Inputs: 12, Outputs: 6, Gates: 300, Seed: 180})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 16, Seed: 181})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SATAttack(lk, orig, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("attack did not converge in %d iterations", res.Iterations)
	}
	recovered, err := lk.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sim.EquivalentOpt(orig, recovered, sim.CompareOptions{Patterns: 16384, Seed: 182})
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("recovered key is not functionally correct")
	}
	if res.Iterations == 0 {
		t.Fatal("expected at least one distinguishing input")
	}
	perIter := float64(res.AddedClauses) / float64(res.Iterations)
	base := float64(res.BaseClauses)
	// The old encoding added ≈ BaseClauses per iteration (two copies of
	// a single-circuit encoding). Require at least a 4× reduction per
	// iteration and that the whole run stays below one re-encoding.
	if perIter > base/4 {
		t.Errorf("clause growth per iteration %.0f exceeds base/4 (%.0f): encoding is not incremental", perIter, base/4)
	}
	t.Logf("base %d clauses, %d iterations added %d (%.1f/iter), %d solve calls, %d oracle evals",
		res.BaseClauses, res.Iterations, res.AddedClauses, perIter, res.SolveCalls, res.OracleEvals)
}

// TestSATAttackPortfolio: the attack on an injected portfolio backend
// must still recover a functionally correct key and keep the
// incremental clause-growth bound, for every member count. Which
// distinguishing inputs are mined depends on the member count, so only
// the invariants — convergence, correctness, boundedness — are
// asserted.
func TestSATAttackPortfolio(t *testing.T) {
	orig, err := bmarks.Generate(bmarks.Spec{Name: "satp", Inputs: 12, Outputs: 6, Gates: 300, Seed: 180})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 16, Seed: 181})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		res, err := SATAttackOpt(lk, orig, SATAttackOptions{
			MaxIter: 400,
			Solver:  sat.NewPortfolio(sat.PortfolioOptions{Workers: workers, Seed: uint64(workers)}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: attack did not converge in %d iterations", workers, res.Iterations)
		}
		recovered, err := lk.ApplyKey(res.Key)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := sim.EquivalentOpt(orig, recovered, sim.CompareOptions{Patterns: 16384, Seed: 182})
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("workers=%d: recovered key is not functionally correct", workers)
		}
		perIter := float64(res.AddedClauses) / float64(max(res.Iterations, 1))
		if base := float64(res.BaseClauses); perIter > base/4 {
			t.Errorf("workers=%d: clause growth %.0f/iter exceeds base/4 (%.0f)", workers, perIter, base/4)
		}
		t.Logf("workers=%d: %d queries, %d solve calls, %.1f clauses/query",
			workers, res.Iterations, res.SolveCalls, perIter)
	}
}

// TestSATAttackStoppedSolver: a solver whose stop flag is already up
// answers Unknown, and the attack must report that as ErrSolverStopped,
// not as convergence.
func TestSATAttackStoppedSolver(t *testing.T) {
	orig, err := bmarks.Generate(bmarks.Spec{Name: "satp", Inputs: 12, Outputs: 6, Gates: 300, Seed: 180})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 16, Seed: 181})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	stop.Store(true)
	res, err := SATAttackOpt(lk, orig, SATAttackOptions{
		Solver: sat.NewPortfolio(sat.PortfolioOptions{Workers: 2, Stop: &stop}),
	})
	if !errors.Is(err, ErrSolverStopped) {
		t.Fatalf("stopped solver: got result %+v, error %v; want ErrSolverStopped", res, err)
	}
}

// TestSATAttackATPGLocked: the incremental attack also handles the
// paper's cost-driven ATPG locking scheme (denser restore logic than
// random XOR insertion).
func TestSATAttackATPGLocked(t *testing.T) {
	orig, err := bmarks.Generate(bmarks.Spec{Name: "sata", Inputs: 12, Outputs: 6, Gates: 250, Seed: 200})
	if err != nil {
		t.Fatal(err)
	}
	lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: 12, Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SATAttack(lk, orig, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("attack did not converge in %d iterations", res.Iterations)
	}
	recovered, err := lk.ApplyKey(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sim.EquivalentOpt(orig, recovered, sim.CompareOptions{Patterns: 16384, Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("recovered key is not functionally correct")
	}
}

// TestSATAttackInvariantB14Scale: on 0.1-scale b14 — the benchmark
// configuration behind BENCH_4/BENCH_5 — the AIG-encoded attack must
// recover a functionally correct key for both locking families (random
// EPIC-style and the paper's cost-driven ATPG scheme), and on the BENCH_4 configuration (RLL, 64-bit key,
// seed 12) the incremental clause growth per query must not regress
// past the 168 clauses/query recorded there.
func TestSATAttackInvariantB14Scale(t *testing.T) {
	if testing.Short() {
		t.Skip("b14-scale attack sweep in -short mode")
	}
	orig, err := bmarks.Load("b14", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lock := func(scheme string) (*locking.Locked, error) {
		switch scheme {
		case "rll":
			return locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: 64, Seed: 12})
		case "atpg":
			lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: 32, Seed: 14})
			return lk, err
		}
		return nil, fmt.Errorf("unknown scheme %q", scheme)
	}
	for _, scheme := range []string{"rll", "atpg"} {
		t.Run(scheme, func(t *testing.T) {
			lk, err := lock(scheme)
			if err != nil {
				t.Fatal(err)
			}
			res, err := SATAttack(lk, orig, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("attack did not converge in %d iterations", res.Iterations)
			}
			recovered, err := lk.ApplyKey(res.Key)
			if err != nil {
				t.Fatal(err)
			}
			eq, err := sim.EquivalentOpt(orig, recovered, sim.CompareOptions{Patterns: 1 << 16, Seed: 15})
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("recovered key is not functionally correct")
			}
			if res.AIGNodes == 0 || res.KeyDepNodes == 0 {
				t.Errorf("AIG statistics not collected: %+v", res)
			}
			if res.KeyDepNodes >= res.AIGNodes {
				t.Errorf("no key-independent sharing: %d of %d nodes key-dependent", res.KeyDepNodes, res.AIGNodes)
			}
			perQuery := float64(res.AddedClauses) / float64(max(res.Iterations, 1))
			t.Logf("%s: %d queries, %.1f clauses/query, %d AIG nodes (%d key-dependent, %d strash hits)",
				scheme, res.Iterations, perQuery, res.AIGNodes, res.KeyDepNodes, res.AIGStrashHits)
			if scheme == "rll" && perQuery > 168 {
				t.Errorf("clauses/query %.1f regressed past the BENCH_4 bound of 168", perQuery)
			}
		})
	}
}

func TestCycleRepairProperty(t *testing.T) {
	// Even a pathological random assignment must be repaired into a
	// valid netlist.
	_, _, view, _ := pipeline(t, 600, 16, 90, 4, true, true)
	for s := uint64(0); s < 10; s++ {
		asg := RandomGuess(view, s)
		if _, err := view.Recombine(asg); err != nil {
			t.Fatalf("seed %d: repaired assignment still invalid: %v", s, err)
		}
	}
}

func TestGuessKeyPolarity(t *testing.T) {
	_, _, view, secret := pipeline(t, 600, 16, 95, 4, true, true)
	asg := Ideal(view, secret, 3)
	pol := GuessKeyPolarity(view, asg)
	if len(pol) != len(view.KeyPins()) {
		t.Fatalf("polarity map covers %d pins, want %d", len(pol), len(view.KeyPins()))
	}
}
