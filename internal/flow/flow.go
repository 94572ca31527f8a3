// Package flow orchestrates the paper's end-to-end physical design
// framework (Fig. 3):
//
// Synthesis stage: hierarchical partitioning → stuck-at fault /
// failing-pattern enumeration → cost-driven re-synthesis of the
// fault-injected circuit → restore circuitry insertion (key-gates +
// TIE cells, dont_touch) → LEC against the original (reject loop;
// designs over lecGateLimit gates are checked by random simulation).
//
// Layout stage: randomize-and-fix TIE cells → placement with TIE cells
// detached → routing with key-nets lifted above the split layer through
// stacked vias (ECO route) → split into FEOL and BEOL.
//
// The experiment runners in experiments.go (RunITC, RunISCAS, RunFig5,
// RunIdeal) drive this flow to regenerate every table and figure of
// Sec. IV. Each lists its cells (a benchmark×layer for Tables I/II, a
// benchmark for the others) and hands them to runCells, the one loop
// that claims, isolates, checkpoints and reports cells.
package flow

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/layout"
	"repro/internal/lec"
	"repro/internal/locking"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/split"
)

// Config selects flow parameters.
type Config struct {
	// KeyBits is the key size (the paper uses 128).
	KeyBits int
	// SplitLayer is the first BEOL layer (4 or 6 in the paper).
	SplitLayer int
	// Seed makes the whole flow reproducible.
	Seed uint64
	// UseATPGLock selects the cost-driven fault-injection scheme
	// (true, the paper's choice) or plain random locking.
	UseATPGLock bool
}

// lecGateLimit bounds the size at which full SAT-based LEC runs; larger
// designs are verified with heavy random simulation (the construction
// is exact; LEC is the Fig. 3 safety net).
const lecGateLimit = 4000

func (c Config) withDefaults() Config {
	if c.KeyBits <= 0 {
		c.KeyBits = 128
	}
	if c.SplitLayer == 0 {
		c.SplitLayer = 4
	}
	return c
}

// Artifacts bundles everything the flow produces for one design.
type Artifacts struct {
	Config   Config
	Original *netlist.Circuit
	Locked   *locking.Locked
	// LockReport is nil when random locking was used.
	LockReport *locking.ATPGLockReport
	Layout     *layout.Layout
	Routes     *route.Result
	View       *split.FEOLView
	Secret     *split.Secret
	// LECStats reports the structural-hashing work of the Fig. 3 LEC
	// step (AIG nodes, strash hits, sweep merges, miter clauses); nil
	// when the design exceeded lecGateLimit and was verified by
	// simulation instead.
	LECStats *lec.Stats
	// Runtime is the wall-clock time of the full flow.
	Runtime time.Duration
}

// Run executes the complete secure flow on a design. Cancelling ctx
// stops the flow at the next stage boundary — and, inside the lock
// step at module granularity and inside the LEC stage at
// solver/simulation granularity — returning the context's error. A
// run that completes before cancellation is unaffected, so
// deterministic results stay bit-identical under deadlines that never
// fire.
func Run(ctx context.Context, orig *netlist.Circuit, cfg Config) (*Artifacts, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// --- Synthesis stage ---
	lk, rep, err := lockDesign(ctx, orig, cfg.KeyBits, cfg.Seed, cfg.UseATPGLock)
	if err != nil {
		return nil, err
	}
	return runLocked(ctx, orig, lk, rep, cfg, start, nil, JobRuntime{})
}

// lockDesign is the flow's lock step: the paper's cost-driven ATPG
// scheme, or plain random locking (which has no report). Cancelling ctx
// stops the ATPG scheme before its next module, and lockDesign then
// returns ctx's error.
func lockDesign(ctx context.Context, orig *netlist.Circuit, keyBits int, seed uint64, useATPG bool) (*locking.Locked, *locking.ATPGLockReport, error) {
	var lk *locking.Locked
	var rep *locking.ATPGLockReport
	var err error
	if useATPG {
		stop, release := engine.WatchContext(ctx)
		defer release()
		lk, rep, err = locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: keyBits, Seed: seed, Stop: stop})
	} else {
		lk, err = locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: keyBits, Seed: seed})
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		return nil, nil, fmt.Errorf("flow: locking: %w", err)
	}
	return lk, rep, nil
}

// runLocked is Run after the lock step: LEC of lk against orig, then
// the layout stage. cfg must already carry its defaults; start is when
// the flow began, for Artifacts.Runtime. solver, when non-nil, is the
// LEC step's SAT backend (see verifyEquivalence). rt receives a
// progress event as the flow crosses each stage boundary ("lec",
// "place", "route", "split"); its Emit runs on the flow goroutine, so
// it must not block for long, and it must not influence results.
func runLocked(ctx context.Context, orig *netlist.Circuit, lk *locking.Locked, rep *locking.ATPGLockReport, cfg Config, start time.Time,
	solver sat.Interface, rt JobRuntime) (*Artifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rt.emit("lec", "verifying locked netlist (%d gates)", lk.Circuit.NumGates())
	lecStats, err := verifyEquivalence(ctx, orig, lk.Circuit, cfg, solver)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// --- Layout stage ---
	rt.emit("place", "placing locked netlist")
	lay, err := place.Place(lk.Circuit, place.Options{Seed: cfg.Seed + 1, RandomizeTies: true})
	if err != nil {
		return nil, fmt.Errorf("flow: placement: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rt.emit("route", "routing with key-nets lifted above M%d", cfg.SplitLayer)
	routes, err := route.RouteAll(lay, route.Options{
		SplitLayer:  cfg.SplitLayer,
		LiftKeyNets: true,
	})
	if err != nil {
		return nil, fmt.Errorf("flow: routing: %w", err)
	}
	rt.emit("split", "splitting into FEOL and BEOL views")
	view, secret, err := split.Split(lay, routes)
	if err != nil {
		return nil, fmt.Errorf("flow: split: %w", err)
	}

	return &Artifacts{
		Config:     cfg,
		Original:   orig,
		Locked:     lk,
		LockReport: rep,
		Layout:     lay,
		Routes:     routes,
		View:       view,
		Secret:     secret,
		LECStats:   lecStats,
		Runtime:    time.Since(start),
	}, nil
}

// verifyEquivalence is the Fig. 3 LEC step: full SAT-based equivalence
// for small designs, heavy random simulation for large ones. For the
// SAT path it returns the checker's structural statistics. The context
// is bridged into the checker's stop flag, so cancellation reaches
// down to individual solver conflict-loop iterations and simulation
// batches — the two places a flow can spend minutes. The check builds
// one SAT solver: no table cell stores anything the solver computes,
// and the verdict is the same at every portfolio width. solver, when
// non-nil, replaces it; it must be fresh, and the check owns it. The
// daemon's lock jobs route their width-capped portfolios through here.
func verifyEquivalence(ctx context.Context, orig, locked *netlist.Circuit, cfg Config, solver sat.Interface) (*lec.Stats, error) {
	stop, release := engine.WatchContext(ctx)
	defer release()
	if orig.NumGates() <= lecGateLimit {
		res, err := lec.Check(orig, locked, lec.Options{
			Seed:   cfg.Seed,
			Solver: solver,
			Stop:   stop,
		})
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("flow: LEC: %w", err)
		}
		if !res.Equivalent {
			return nil, fmt.Errorf("flow: LEC rejected the locked netlist (cex %v)", res.Counterexample)
		}
		return &res.Stats, nil
	}
	eq, err := sim.EquivalentOpt(orig, locked, sim.CompareOptions{
		Patterns: 1 << 16, Seed: cfg.Seed, Stop: stop,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("flow: equivalence simulation: %w", err)
	}
	if !eq {
		return nil, fmt.Errorf("flow: locked netlist diverges from the original under simulation")
	}
	return nil, nil
}

// LayoutVariant produces a placed-and-routed PPA measurement for one of
// the Fig. 5 configurations.
type LayoutVariant string

// Fig. 5 configurations.
const (
	VariantBaseline LayoutVariant = "baseline" // unprotected original
	VariantPrelift  LayoutVariant = "prelift"  // locked, key-nets not lifted
	VariantSplit    LayoutVariant = "split"    // locked, key-nets lifted at cfg.SplitLayer
)

// MeasurePPA places, routes and evaluates one layout variant. For the
// baseline the original netlist is used; the other variants take the
// locked netlist from artifacts.
func MeasurePPA(art *Artifacts, variant LayoutVariant) (metrics.PPA, error) {
	cfg := art.Config
	var c *netlist.Circuit
	lift := false
	switch variant {
	case VariantBaseline:
		c = art.Original
	case VariantPrelift:
		c = art.Locked.Circuit
	case VariantSplit:
		c = art.Locked.Circuit
		lift = true
	default:
		return metrics.PPA{}, fmt.Errorf("flow: unknown variant %q", variant)
	}
	lay, err := place.Place(c, place.Options{Seed: cfg.Seed + 1, RandomizeTies: variant != VariantBaseline})
	if err != nil {
		return metrics.PPA{}, err
	}
	routes, err := route.RouteAll(lay, route.Options{
		SplitLayer:  cfg.SplitLayer,
		LiftKeyNets: lift,
	})
	if err != nil {
		return metrics.PPA{}, err
	}
	act, err := sim.ActivityOpt(c, sim.ActivityOptions{
		Patterns: 2048, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return metrics.PPA{}, err
	}
	return metrics.EvaluatePPA(lay, routes, act)
}
