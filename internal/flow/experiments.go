package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/defense"
	"repro/internal/dispatch"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/runmanifest"
	"repro/internal/sim"
	"repro/internal/split"
)

// Fault-injection sites (enumerable via `tables -faultpoints list`).
var (
	fpCellDone = faultpoint.Describe("flow.itc.cell.done",
		"flow: after an ITC cell is recorded and checkpointed; exit= here simulates dying between cells")
	fpITCRun = faultpoint.Describe("flow.itc.run",
		"flow: at the start of every ITC cell computation (also per-cell as flow.itc.run@<bench>/M<layer>)")
)

// SplitResult aggregates the Table I / Table II / footnote 6 metrics
// for one benchmark at one split layer.
type SplitResult struct {
	SplitLayer int
	// CCR is measured with the paper's key-aware post-processing.
	CCR metrics.CCR
	// LogicalNoPost is the key-net logical CCR without post-processing
	// (footnote 6).
	LogicalNoPost float64
	// HD and OER compare the attack-recovered netlist against the
	// original (Table II), as fractions.
	HD, OER float64
	// Runtime is the flow wall-clock time. It is excluded from the run
	// manifest: checkpointed cells must hold only deterministic fields,
	// so resumed tables are byte-identical.
	Runtime time.Duration `json:"-"`
}

// ITCRow is one benchmark's results across both split layers.
type ITCRow struct {
	Benchmark string
	Results   map[int]SplitResult // keyed by split layer
	// Errors records the benchmark×layer jobs that failed (keyed by
	// split layer); Results has no entry for those layers. RunITC also
	// returns the union of these errors, so a partial table can never
	// render silently.
	Errors map[int]error
}

// defaultScale is the benchmark scale every experiment and job runs at
// when it is given a scale ≤ 0.
const defaultScale = 0.1

// LoadBenchmark generates bench at scale, or at the default 0.1 when
// scale ≤ 0 — the design an experiment or a job of the same scale
// starts from. Callers apply ValidateDesign first.
func LoadBenchmark(bench string, scale float64) (*netlist.Circuit, error) {
	if scale <= 0 {
		scale = defaultScale
	}
	return bmarks.Load(bench, scale)
}

// ITCOptions configures the Table I/II experiment.
type ITCOptions struct {
	// Benchmarks defaults to the ITC'99 set.
	Benchmarks []string
	// Scale shrinks the synthetic benchmarks (1.0 = published size,
	// ≤ 0 = the default, 0.1).
	Scale float64
	// KeyBits defaults to 128.
	KeyBits int
	// Patterns is the HD/OER simulation depth (the paper uses 1M).
	Patterns int
	// Seed drives everything.
	Seed uint64
	// SplitLayers defaults to {4, 6}.
	SplitLayers []int
	// Parallel runs benchmark×layer jobs concurrently (the paper's
	// flow exploits a 128-core host the same way); in-process cells
	// split the cores between their HD/OER simulations (runCells).
	Parallel bool
	// SolverWorkers is ignored: a cell's LEC step always builds one
	// SAT solver, since no cell result depends on the portfolio width.
	// It is kept so existing callers still compile.
	SolverWorkers int
	// JobTimeout bounds each in-process benchmark×layer job (0 = none);
	// a job that exceeds it is cancelled and recorded on its row's Errors
	// map, and the other cells keep running. Jobs that finish under the
	// deadline are bit-identical to an unbounded run. A failed cell is
	// not retried in-process: only the dispatch coordinator's
	// reassignment after a worker death ever runs a cell again.
	JobTimeout time.Duration
	// Manifest, when non-nil, checkpoints every completed cell (and is
	// consulted first, so cells already present are not recomputed).
	// Each completed cell is flushed to disk immediately, making the
	// run resumable after a crash or kill.
	Manifest *runmanifest.Manifest
	// Progress, when non-nil, is called after each cell completes or
	// fails, with the cell key and the running counts (calls are
	// serialized under the run's result lock). It must not influence
	// results. Its caller is perfbench's paper-b14 workload, which
	// times each cell's completion with it.
	Progress func(key string, done, total int) `json:"-"`
	// CellRunner, when non-nil, replaces the in-process cell
	// computation: RunITC keeps its manifest-skip, checkpoint, progress
	// and error plumbing but delegates each missing cell here (the
	// dispatch coordinator plugs in at this seam to run cells in worker
	// processes). The runner must be deterministic in (bench, layer) for
	// fixed options — RunITC checkpoints whatever it returns. Every
	// missing cell is handed to the runner at once, whatever Parallel
	// says: the coordinator's queue already bounds execution to its
	// fleet.
	CellRunner func(ctx context.Context, bench string, layer int) (SplitResult, error) `json:"-"`
}

func (o ITCOptions) withDefaults() ITCOptions {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = bmarks.ITC99Names()
	}
	if o.Scale <= 0 {
		o.Scale = defaultScale
	}
	if o.KeyBits <= 0 {
		o.KeyBits = 128
	}
	if o.Patterns <= 0 {
		o.Patterns = 1 << 16
	}
	if len(o.SplitLayers) == 0 {
		o.SplitLayers = []int{4, 6}
	}
	return o
}

// ITCCellKey names one benchmark×layer cell as it appears in manifest
// files, error reports and `@<cell>` fault sites ("b14/M4"). It is the
// dispatch layer's CellSpec.Key, so coordinator and manifest agree.
func ITCCellKey(bench string, splitLayer int) string {
	return dispatch.CellSpec{Bench: bench, Layer: splitLayer}.Key()
}

// LayerSeed is the lock seed of a split layer's flow: a table cell, a
// lock/verify/attack job and cmd/attack on the same (seed, layer) lock
// the same circuit.
func LayerSeed(seed uint64, splitLayer int) uint64 {
	return seed + uint64(splitLayer)*1000
}

// RunITC regenerates Tables I and II (and the footnote 6 numbers). A
// benchmark×layer cell that fails — an error, a panic inside the job,
// or a blown JobTimeout — is recorded on its row's Errors map and joined
// into the returned error, and never poisons sibling cells. The rows are
// returned either way, so callers can render the successful cells next
// to an explicit failure report. An interrupted cell is simply absent,
// so a resumed run recomputes it (see runCells).
func RunITC(ctx context.Context, opt ITCOptions) ([]ITCRow, error) {
	opt = opt.withDefaults()
	nl := len(opt.SplitLayers)
	rows := make([]ITCRow, len(opt.Benchmarks))
	var keys []string
	for bi, bench := range opt.Benchmarks {
		rows[bi] = ITCRow{Benchmark: bench, Results: make(map[int]SplitResult)}
		for _, sl := range opt.SplitLayers {
			keys = append(keys, ITCCellKey(bench, sl))
		}
	}
	timeout := opt.JobTimeout
	if opt.CellRunner != nil {
		timeout = 0 // a runner's cells run under the worker's own deadline
	}
	outs, err := runCells(ctx, cells[SplitResult]{
		keys: keys,
		run: func(ctx context.Context, i int, simWorkers func() int) (SplitResult, error) {
			bench, layer := opt.Benchmarks[i/nl], opt.SplitLayers[i%nl]
			if opt.CellRunner != nil {
				return opt.CellRunner(ctx, bench, layer)
			}
			return runOneITC(ctx, bench, layer, opt, simWorkers)
		},
		parallel: opt.Parallel, all: opt.CellRunner != nil, timeout: timeout,
		manifest: opt.Manifest, progress: opt.Progress,
	})
	for i, o := range outs {
		row, layer := &rows[i/nl], opt.SplitLayers[i%nl]
		if o.err != nil {
			if row.Errors == nil {
				row.Errors = make(map[int]error)
			}
			row.Errors[layer] = o.err
		} else if o.done {
			row.Results[layer] = o.res
		}
	}
	return rows, err
}

// RunITCCell computes one benchmark×layer cell under the in-process
// robustness policy — panic isolation and the per-job deadline. It is
// the worker-side entry point of the dispatch layer: a `tables -worker`
// process calls this once per lease, and the cell's simulation uses
// the whole process (GOMAXPROCS workers).
func RunITCCell(ctx context.Context, bench string, layer int, opt ITCOptions) (SplitResult, error) {
	opt = opt.withDefaults()
	return isolate(ctx, opt.JobTimeout, func(ctx context.Context) (SplitResult, error) {
		return runOneITC(ctx, bench, layer, opt, func() int { return 0 })
	})
}

// cells describes one experiment for runCells: cell i is named keys[i]
// (in errors, progress calls and the manifest) and computed by run. A
// cell calls simWorkers as each of its simulations starts, for the
// width of that simulation's pool.
type cells[R any] struct {
	keys          []string
	run           func(ctx context.Context, i int, simWorkers func() int) (R, error)
	parallel, all bool                              // one cell per core; every cell at once, whatever parallel says
	timeout       time.Duration                     // per cell (0 = none)
	manifest      *runmanifest.Manifest             // skip the cells it holds, checkpoint the others
	progress      func(key string, done, total int) // per finished or failed cell, under a lock
}

// cellOutcome is one cell's result (done) or failure (err); an
// interrupted cell has neither.
type cellOutcome[R any] struct {
	res  R
	err  error
	done bool
}

// runCells is the one cell loop of every experiment. Pending cells are
// claimed in key order, one per engine batch. Each runs under its own
// deadline with panics isolated, and a failure never stops the others.
// Cancelling ctx stops claiming cells; a cell that fails while ctx is
// done is interrupted, not failed, so a resumed run recomputes it. The
// error joins every failure in cell order, each prefixed by its key,
// then a checkpoint failure, then ctx's error.
func runCells[R any](ctx context.Context, c cells[R]) ([]cellOutcome[R], error) {
	outs := make([]cellOutcome[R], len(c.keys))
	var pending []int
	for i, key := range c.keys {
		if c.manifest != nil {
			var res R
			if ok, err := c.manifest.Get(key, &res); err == nil && ok {
				outs[i] = cellOutcome[R]{res: res, done: true}
				continue
			}
		}
		pending = append(pending, i)
	}
	// Concurrent cells split the cores between their simulations, so the
	// total worker count stays ~GOMAXPROCS rather than GOMAXPROCS². The
	// split is taken as each simulation starts, over the cells running
	// then: the last cell still running gets the cores the finished
	// ones left idle. A serial cell gets the whole pool (0). Results do
	// not depend on the width.
	width := 1
	var running atomic.Int32
	simWorkers := func() int { return 0 }
	if c.parallel {
		width = runtime.GOMAXPROCS(0)
		simWorkers = func() int {
			return max(runtime.GOMAXPROCS(0)/max(int(running.Load()), 1), 1)
		}
	}
	if c.all {
		width = len(pending)
	}
	var mu sync.Mutex
	var manifestErr error
	finished := 0
	// Cells check ctx themselves: Run gets no Stop flag and cannot fail.
	_, _ = engine.Run(len(pending), engine.Options{Workers: width, Grain: 1},
		func(int) struct{} { return struct{}{} },
		func(_ struct{}, b engine.Batch) {
			i := pending[b.Start]
			if ctx.Err() != nil {
				return
			}
			running.Add(1)
			res, err := isolate(ctx, c.timeout, func(ctx context.Context) (R, error) {
				return c.run(ctx, i, simWorkers)
			})
			running.Add(-1)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && ctx.Err() != nil {
				return // interrupted
			}
			outs[i] = cellOutcome[R]{res: res, err: err, done: err == nil}
			finished++
			key := c.keys[i]
			if c.progress != nil {
				c.progress(key, finished, len(pending))
			}
			if err != nil || c.manifest == nil {
				return
			}
			if err = c.manifest.Put(key, res); err == nil {
				err = c.manifest.Flush()
			}
			if err != nil && manifestErr == nil {
				manifestErr = fmt.Errorf("checkpoint %s: %w", key, err)
			}
			faultpoint.Hit(fpCellDone)
		})
	var errs []error
	for i, o := range outs {
		if o.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", c.keys[i], o.err))
		}
	}
	if manifestErr != nil {
		errs = append(errs, manifestErr)
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return outs, errors.Join(errs...)
}

// results returns each cell's result in cell order; a failed or
// interrupted cell's entry stays zero.
func results[R any](outs []cellOutcome[R]) []R {
	rows := make([]R, len(outs))
	for i, o := range outs {
		rows[i] = o.res
	}
	return rows
}

// isolate runs one cell under its own deadline (0 = none) and converts
// a panic anywhere inside it — including one recovered from an engine
// worker goroutine — into an error carrying the panicking goroutine's
// stack. A failed cell's result is zero.
func isolate[R any](ctx context.Context, timeout time.Duration, run func(context.Context) (R, error)) (res R, err error) {
	jobCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			if pe, ok := engine.AsPanicError(v); ok {
				v, stack = pe.Value, pe.Stack
			}
			err = fmt.Errorf("job panicked: %v\n%s", v, stack)
		}
		if err != nil {
			res = *new(R)
		}
	}()
	res, err = run(jobCtx)
	if err != nil && jobCtx.Err() != nil && ctx.Err() == nil {
		err = fmt.Errorf("job exceeded -jobtimeout %v: %w", timeout, err)
	}
	return res, err
}

func runOneITC(ctx context.Context, bench string, splitLayer int, opt ITCOptions, simWorkers func() int) (SplitResult, error) {
	faultpoint.Hit(fpITCRun)
	faultpoint.Hit(fpITCRun + "@" + ITCCellKey(bench, splitLayer))
	if err := ctx.Err(); err != nil {
		return SplitResult{}, err
	}
	orig, err := bmarks.Load(bench, opt.Scale)
	if err != nil {
		return SplitResult{}, err
	}
	art, err := Run(ctx, orig, Config{
		KeyBits:     opt.KeyBits,
		SplitLayer:  splitLayer,
		Seed:        LayerSeed(opt.Seed, splitLayer),
		UseATPGLock: true,
	})
	if err != nil {
		return SplitResult{}, err
	}
	res := SplitResult{SplitLayer: splitLayer, Runtime: art.Runtime}

	// One greedy search yields both the key-aware attack and the raw
	// one behind footnote 6.
	asg, rawAsg, err := attack.ProximityPair(art.View, attack.ProximityOptions{Seed: opt.Seed + 7})
	if err != nil {
		return SplitResult{}, err
	}
	res.CCR = metrics.ComputeCCR(art.View, art.Secret, asg)
	res.LogicalNoPost = metrics.ComputeCCR(art.View, art.Secret, rawAsg).KeyLogical
	stop, release := engine.WatchContext(ctx)
	defer release()
	d, err := metrics.FunctionalOpt(orig, art.View, asg, sim.CompareOptions{
		Patterns: opt.Patterns,
		Seed:     opt.Seed + 8,
		Workers:  simWorkers(),
		Stop:     stop,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return SplitResult{}, cerr
		}
		return SplitResult{}, err
	}
	res.HD, res.OER = d.HD, d.OER
	return res, nil
}

// SchemeResult is one Table III cell group.
type SchemeResult struct {
	PNR, CCR, HD, OER float64
}

// ISCASRow is one Table III row.
type ISCASRow struct {
	Benchmark string
	// Schemes is keyed "perturb22", "lift12", "restore13", "proposed".
	Schemes map[string]SchemeResult
}

// ISCASOptions configures the Table III experiment.
type ISCASOptions struct {
	Benchmarks []string
	KeyBits    int
	Patterns   int
	Seed       uint64
	Parallel   bool
}

func (o ISCASOptions) withDefaults() ISCASOptions {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = bmarks.ISCASNames()
	}
	if o.Patterns <= 0 {
		o.Patterns = 1 << 15
	}
	return o
}

// liftFraction is the lifted-connection budget of the prior-art
// defenses [12] and [13] in Table III.
const liftFraction = 0.5

// SchemeNames lists the Table III columns in published order.
func SchemeNames() []string { return []string{"perturb22", "lift12", "restore13", "proposed"} }

// RunISCAS regenerates Table III: the three prior-art defenses and the
// proposed scheme, each attacked with the proximity attack. A failed
// row stays zero (see runCells).
func RunISCAS(ctx context.Context, opt ISCASOptions) ([]ISCASRow, error) {
	opt = opt.withDefaults()
	outs, err := runCells(ctx, cells[ISCASRow]{
		keys: opt.Benchmarks,
		run: func(ctx context.Context, i int, simWorkers func() int) (ISCASRow, error) {
			return runOneISCAS(ctx, opt.Benchmarks[i], opt, simWorkers)
		},
		parallel: opt.Parallel,
	})
	return results(outs), err
}

func runOneISCAS(ctx context.Context, bench string, opt ISCASOptions, simWorkers func() int) (ISCASRow, error) {
	row := ISCASRow{Benchmark: bench, Schemes: make(map[string]SchemeResult)}
	stop, release := engine.WatchContext(ctx)
	defer release()
	orig, err := bmarks.Load(bench, 1.0)
	if err != nil {
		return row, err
	}
	// Prior-art defenses protect the unlocked design.
	lay, err := place.Place(orig, place.Options{Seed: opt.Seed + 1})
	if err != nil {
		return row, err
	}
	routes, err := route.RouteAll(lay, route.Options{SplitLayer: 4})
	if err != nil {
		return row, err
	}
	// scheme attacks one split layout and scores it. CCR is the regular
	// nets' CCR for a prior defense and the key-nets' physical CCR for
	// the proposed scheme (Table III note).
	scheme := func(view *split.FEOLView, secret *split.Secret, proposed bool) (SchemeResult, error) {
		asg, err := attack.Proximity(view, attack.ProximityOptions{Seed: opt.Seed + 5, KeyPostProcess: proposed})
		if err != nil {
			return SchemeResult{}, err
		}
		ccr := metrics.ComputeCCR(view, secret, asg)
		d, err := metrics.FunctionalOpt(orig, view, asg, sim.CompareOptions{
			Patterns: opt.Patterns,
			Seed:     opt.Seed + 6,
			Workers:  simWorkers(),
			Stop:     stop,
		})
		if err != nil {
			return SchemeResult{}, err
		}
		res := SchemeResult{PNR: metrics.PNR(view, secret, asg), CCR: ccr.Regular, HD: d.HD, OER: d.OER}
		if proposed {
			res.CCR = ccr.KeyPhysical
		}
		return res, nil
	}
	priors := map[string]*route.Result{
		"perturb22": defense.PerturbRouting(lay, routes, 0.9, 5, opt.Seed+2),
		"lift12":    defense.LiftWires(lay, routes, liftFraction, opt.Seed+3),
		"restore13": defense.BEOLRestore(lay, routes, liftFraction, opt.Seed+4),
	}
	for name, r := range priors {
		view, secret, err := split.Split(lay, r)
		if err != nil {
			return row, err
		}
		if row.Schemes[name], err = scheme(view, secret, false); err != nil {
			return row, err
		}
	}
	// Proposed: the full SplitLock flow.
	art, err := Run(ctx, orig, Config{KeyBits: opt.KeyBits, SplitLayer: 4, Seed: opt.Seed + 9,
		UseATPGLock: true})
	if err != nil {
		return row, err
	}
	row.Schemes["proposed"], err = scheme(art.View, art.Secret, true)
	return row, err
}

// CostDelta is one Fig. 5 measurement: percent change versus the
// unprotected baseline layout.
type CostDelta struct {
	Area, Power, Timing float64
}

// Fig5Row is one benchmark's layout cost across the three variants.
type Fig5Row struct {
	Benchmark string
	Prelift   CostDelta
	M4        CostDelta
	M6        CostDelta
}

// Fig5Options configures the layout cost experiment.
type Fig5Options struct {
	Benchmarks []string
	Scale      float64
	KeyBits    int
	Seed       uint64
	Parallel   bool
}

func (o Fig5Options) withDefaults() Fig5Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = bmarks.ITC99Names()
	}
	if o.Scale <= 0 {
		o.Scale = defaultScale
	}
	return o
}

// RunFig5 regenerates the Fig. 5 layout cost study. A failed row stays
// zero (see runCells).
func RunFig5(ctx context.Context, opt Fig5Options) ([]Fig5Row, error) {
	opt = opt.withDefaults()
	outs, err := runCells(ctx, cells[Fig5Row]{
		keys: opt.Benchmarks,
		run: func(ctx context.Context, i int, _ func() int) (Fig5Row, error) {
			return runOneFig5(ctx, opt.Benchmarks[i], opt)
		},
		parallel: opt.Parallel,
	})
	return results(outs), err
}

func runOneFig5(ctx context.Context, bench string, opt Fig5Options) (Fig5Row, error) {
	row := Fig5Row{Benchmark: bench}
	orig, err := bmarks.Load(bench, opt.Scale)
	if err != nil {
		return row, err
	}
	art, err := Run(ctx, orig, Config{KeyBits: opt.KeyBits, SplitLayer: 4, Seed: opt.Seed + 11, UseATPGLock: true})
	if err != nil {
		return row, err
	}
	if err := ctx.Err(); err != nil {
		return row, err
	}
	art6 := *art
	art6.Config.SplitLayer = 6
	// The unprotected baseline, then the prelift, M4 and M6 variants.
	var ppa [4]metrics.PPA
	for k, v := range []struct {
		art     *Artifacts
		variant LayoutVariant
	}{{art, VariantBaseline}, {art, VariantPrelift}, {art, VariantSplit}, {&art6, VariantSplit}} {
		if ppa[k], err = MeasurePPA(v.art, v.variant); err != nil {
			return row, err
		}
	}
	delta := func(p metrics.PPA) CostDelta {
		a, pw, d := p.Delta(ppa[0])
		return CostDelta{Area: a, Power: pw, Timing: d}
	}
	row.Prelift, row.M4, row.M6 = delta(ppa[1]), delta(ppa[2]), delta(ppa[3])
	return row, nil
}

// IdealAttackResult summarizes the Sec. IV-A ideal-attack experiment
// on one design.
type IdealAttackResult struct {
	Benchmark string
	Runs      int
	// ErrRuns counts runs whose recovered netlist showed at least one
	// output error; the paper reports OER = 100% (ErrRuns == Runs).
	ErrRuns int
	// FullKeyRecoveries counts runs where the random guess matched the
	// whole key physically (expected: 0).
	FullKeyRecoveries int
}

// OERPercent is ErrRuns/Runs in percent.
func (r IdealAttackResult) OERPercent() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.ErrRuns) / float64(r.Runs) * 100
}

// IdealOptions configures the Sec. IV-A ideal-attack experiment. Each
// design runs RunIdealAttack with these arguments.
type IdealOptions struct {
	Benchmarks []string // defaults to the ITC'99 set
	Scale      float64
	KeyBits    int
	Runs       int
	Seed       uint64
}

// RunIdeal runs the ideal attack on each design, one at a time: a
// design's runs already fill the engine pool. A failed row stays zero
// (see runCells).
func RunIdeal(ctx context.Context, opt IdealOptions) ([]IdealAttackResult, error) {
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = bmarks.ITC99Names()
	}
	outs, err := runCells(ctx, cells[IdealAttackResult]{
		keys: opt.Benchmarks,
		run: func(ctx context.Context, i int, _ func() int) (IdealAttackResult, error) {
			return RunIdealAttack(ctx, opt.Benchmarks[i], opt.Scale, opt.KeyBits, opt.Runs, opt.Seed)
		},
	})
	return results(outs), err
}

// idealPatterns is the simulation depth of one ideal-attack run: a run
// only asks whether any output errs at all.
const idealPatterns = 256

// RunIdealAttack performs the ideal proximity attack experiment:
// regular nets granted, key-nets guessed randomly, repeated `runs`
// times (the paper uses 1,000,000) over idealPatterns patterns each.
// Runs are sharded across the engine worker pool — each worker mutates
// its own clone of the recovered netlist — and every run is
// independently seeded, so the tallies do not depend on the worker
// count. A scale ≤ 0 runs at the default 0.1, as every other
// experiment does. Cancelling ctx drains the pool and returns the context's error.
func RunIdealAttack(ctx context.Context, bench string, scale float64, keyBits, runs int, seed uint64) (IdealAttackResult, error) {
	res := IdealAttackResult{Benchmark: bench, Runs: runs}
	if runs < 1 {
		// Zero runs would print an OER of 0%, which reads as a broken lock.
		return res, fmt.Errorf("ideal attack: %d runs, want at least 1", runs)
	}
	orig, err := LoadBenchmark(bench, scale)
	if err != nil {
		return res, err
	}
	art, err := Run(ctx, orig, Config{KeyBits: keyBits, SplitLayer: 4, Seed: seed, UseATPGLock: true})
	if err != nil {
		return res, err
	}
	// Fast path: the recovered function depends only on the polarity
	// each key pin receives, so one recombined netlist with two shared
	// TIE drivers is mutated per run instead of rebuilding circuits.
	rec, err := art.View.Recombine(art.Secret.Assignment)
	if err != nil {
		return res, err
	}
	hiT, err := rec.AddGate("ideal_hi", netlist.TieHi)
	if err != nil {
		return res, err
	}
	loT, err := rec.AddGate("ideal_lo", netlist.TieLo)
	if err != nil {
		return res, err
	}
	keyPins := art.View.KeyPins()
	// Workers share orig read-only; warm its lazily cached structures
	// before fanning out.
	if _, err := orig.TopoOrder(); err != nil {
		return res, err
	}

	type iaState struct {
		rec               *netlist.Circuit // worker-private clone (IDs preserved)
		errRuns, fullKeys int
		err               error
		errRun            int
	}
	stop, release := engine.WatchContext(ctx)
	defer release()
	states, runErr := engine.Run(runs, engine.Options{Stop: stop},
		func(worker int) *iaState {
			s := &iaState{rec: rec, errRun: -1}
			if worker > 0 {
				s.rec = rec.Clone()
			}
			return s
		},
		func(s *iaState, b engine.Batch) {
			if s.err != nil {
				return
			}
			for r := b.Start; r < b.End; r++ {
				asg := attack.Ideal(art.View, art.Secret, seed+uint64(r)*2654435761)
				full := true
				for _, cp := range keyPins {
					guess := asg[cp.Ref]
					if guess != art.Secret.Assignment[cp.Ref] {
						full = false
					}
					tie := loT
					if s.rec.Gate(guess).Type == netlist.TieHi {
						tie = hiT
					}
					if err := s.rec.SetFanin(cp.Ref.Gate, cp.Ref.Pin, tie); err != nil {
						s.err, s.errRun = err, r
						return
					}
				}
				if full {
					s.fullKeys++
				}
				d, err := sim.Compare(orig, s.rec, sim.CompareOptions{
					Patterns: idealPatterns,
					Seed:     seed + uint64(r),
					Workers:  1, // runs already saturate the pool
				})
				if err != nil {
					s.err, s.errRun = err, r
					return
				}
				if d.OER > 0 {
					s.errRuns++
				}
			}
		})

	if runErr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return res, cerr
		}
		return res, runErr
	}
	firstErr, firstErrRun := error(nil), -1
	for _, s := range states {
		res.ErrRuns += s.errRuns
		res.FullKeyRecoveries += s.fullKeys
		if s.err != nil && (firstErrRun < 0 || s.errRun < firstErrRun) {
			firstErr, firstErrRun = s.err, s.errRun
		}
	}
	return res, firstErr
}

// Quartiles summarizes a sample for the Fig. 5 box plot.
type Quartiles struct {
	Min, Q1, Median, Q3, Max float64
}

// ComputeQuartiles sorts a copy of xs and extracts the box-plot
// statistics.
func ComputeQuartiles(xs []float64) Quartiles {
	if len(xs) == 0 {
		return Quartiles{}
	}
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	return Quartiles{Min: s[0], Q1: at(0.25), Median: at(0.5), Q3: at(0.75), Max: s[len(s)-1]}
}
