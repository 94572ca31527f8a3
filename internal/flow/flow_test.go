package flow

import (
	"context"
	"testing"

	"repro/internal/bmarks"
	"repro/internal/lec"
)

func TestRunEndToEnd(t *testing.T) {
	orig, err := bmarks.Load("c880", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Run(context.Background(), orig, Config{KeyBits: 32, SplitLayer: 4, Seed: 1, UseATPGLock: true})
	if err != nil {
		t.Fatal(err)
	}
	if art.Locked.Key.Len() != 32 {
		t.Fatalf("key bits %d", art.Locked.Key.Len())
	}
	if len(art.View.KeyPins()) != 32 {
		t.Fatalf("key pins cut: %d", len(art.View.KeyPins()))
	}
	// Recombining with the secret reproduces a circuit equivalent to
	// the original.
	rec, err := art.View.Recombine(art.Secret.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lec.Check(orig, rec, lec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("flow output not equivalent to original")
	}
	if art.Runtime <= 0 {
		t.Fatal("runtime not measured")
	}
}

func TestRunRandomLockVariant(t *testing.T) {
	orig, err := bmarks.Load("c432", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Run(context.Background(), orig, Config{KeyBits: 16, SplitLayer: 6, Seed: 2, UseATPGLock: false})
	if err != nil {
		t.Fatal(err)
	}
	if art.LockReport != nil {
		t.Fatal("random locking should not produce an ATPG report")
	}
	if len(art.View.KeyPins()) != 16 {
		t.Fatalf("key pins: %d", len(art.View.KeyPins()))
	}
}

func TestMeasurePPAVariants(t *testing.T) {
	orig, err := bmarks.Load("c1355", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Run(context.Background(), orig, Config{KeyBits: 32, SplitLayer: 4, Seed: 3, UseATPGLock: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := MeasurePPA(art, VariantBaseline)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := MeasurePPA(art, VariantPrelift)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := MeasurePPA(art, VariantSplit)
	if err != nil {
		t.Fatal(err)
	}
	if base.AreaUM2 <= 0 || pre.AreaUM2 <= 0 || sp.AreaUM2 <= 0 {
		t.Fatal("non-positive areas")
	}
	// Lifting adds via stacks: the split variant must not be cheaper
	// in delay than prelift by more than noise.
	if sp.DelayPS < pre.DelayPS*0.8 {
		t.Fatalf("lifted layout implausibly faster: %v vs %v", sp.DelayPS, pre.DelayPS)
	}
	if _, err := MeasurePPA(art, LayoutVariant("bogus")); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestRunITCSmall(t *testing.T) {
	rows, err := RunITC(context.Background(), ITCOptions{
		Benchmarks: []string{"b14"},
		Scale:      0.03,
		KeyBits:    48,
		Patterns:   1 << 12,
		Seed:       4,
		Parallel:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, sl := range []int{4, 6} {
		r, ok := rows[0].Results[sl]
		if !ok {
			t.Fatalf("missing split layer %d", sl)
		}
		if r.CCR.KeyPins == 0 {
			t.Fatalf("M%d: no key pins measured", sl)
		}
		if r.CCR.KeyPhysical > 0.2 {
			t.Errorf("M%d: physical CCR %.2f too high", sl, r.CCR.KeyPhysical)
		}
		if r.CCR.KeyLogical < 0.25 || r.CCR.KeyLogical > 0.75 {
			t.Errorf("M%d: logical CCR %.2f not near 0.5", sl, r.CCR.KeyLogical)
		}
		if r.OER == 0 {
			t.Errorf("M%d: attack recovered a working netlist", sl)
		}
	}
}

// A failed benchmark×layer job must surface on the row and in the
// returned error — never as a silently absent table cell.
func TestRunITCAnnotatesFailedJobs(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		rows, err := RunITC(context.Background(), ITCOptions{
			Benchmarks: []string{"no_such_bench", "b14"},
			Scale:      0.03,
			KeyBits:    48,
			Patterns:   1 << 10,
			Seed:       4,
			Parallel:   parallel,
		})
		if err == nil {
			t.Fatalf("parallel=%v: missing benchmark did not error", parallel)
		}
		if len(rows) != 2 {
			t.Fatalf("parallel=%v: rows: %d", parallel, len(rows))
		}
		bad := rows[0]
		if len(bad.Results) != 0 {
			t.Errorf("parallel=%v: failed row has results %v", parallel, bad.Results)
		}
		for _, sl := range []int{4, 6} {
			if bad.Errors[sl] == nil {
				t.Errorf("parallel=%v: row %q layer M%d not annotated", parallel, bad.Benchmark, sl)
			}
		}
		// The sibling row must still carry its results so callers can
		// render the successes alongside the failure report.
		good := rows[1]
		if len(good.Errors) != 0 {
			t.Errorf("parallel=%v: good row annotated: %v", parallel, good.Errors)
		}
		for _, sl := range []int{4, 6} {
			if _, ok := good.Results[sl]; !ok {
				t.Errorf("parallel=%v: good row missing layer M%d", parallel, sl)
			}
		}
	}
}

func TestRunIdealAttackSmall(t *testing.T) {
	res, err := RunIdealAttack(context.Background(), "b14", 0.02, 32, 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 50 {
		t.Fatalf("runs: %d", res.Runs)
	}
	if res.FullKeyRecoveries != 0 {
		t.Fatalf("random guessing recovered the key %d times", res.FullKeyRecoveries)
	}
	if res.OERPercent() < 95 {
		t.Fatalf("ideal attack OER %.1f%%, expected ≈100%%", res.OERPercent())
	}
	for _, runs := range []int{0, -1} {
		if _, err := RunIdealAttack(context.Background(), "b14", 0.02, 32, runs, 5); err == nil {
			t.Fatalf("runs=%d: no error", runs)
		}
	}
	// Scale 0 takes the default scale, as RunITC, RunFig5 and jobs do,
	// not the published size (which reads 142 erring runs here, not 141).
	def, err := RunIdealAttack(context.Background(), "b14", 0, 4, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	tenth, err := RunIdealAttack(context.Background(), "b14", 0.1, 4, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if def != tenth {
		t.Fatalf("scale 0: %+v, scale 0.1: %+v", def, tenth)
	}
}

// With more runs than one engine batch (grain 64), the ideal-attack
// sweep spans several workers on a multi-core host; repeated
// invocations must tally identically since every run is independently
// seeded. This is also the -race coverage for the worker-cloned
// netlists.
func TestRunIdealAttackWorkerDeterminism(t *testing.T) {
	first, err := RunIdealAttack(context.Background(), "b14", 0.02, 16, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunIdealAttack(context.Background(), "b14", 0.02, 16, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("repeated sweeps disagree: %+v vs %+v", first, second)
	}
}

func TestComputeQuartiles(t *testing.T) {
	q := ComputeQuartiles([]float64{4, 1, 3, 2, 5})
	if q.Min != 1 || q.Max != 5 || q.Median != 3 {
		t.Fatalf("quartiles: %+v", q)
	}
	if q.Q1 != 2 || q.Q3 != 4 {
		t.Fatalf("quartiles: %+v", q)
	}
	empty := ComputeQuartiles(nil)
	if empty.Max != 0 {
		t.Fatal("empty quartiles should be zero")
	}
}
