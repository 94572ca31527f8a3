package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/defense"
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
	// both so resumed tables are byte-identical and so Merge can detect
	// genuinely conflicting shards by payload comparison.
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

// ITCOptions configures the Table I/II experiment.
type ITCOptions struct {
	// Benchmarks defaults to the ITC'99 set.
	Benchmarks []string
	// Scale shrinks the synthetic benchmarks (1.0 = published size).
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
	// flow exploits a 128-core host the same way).
	Parallel bool
	// SimWorkers caps the per-job pattern-simulation worker pool for
	// the HD/OER runs (0 = GOMAXPROCS, 1 = serial). Results are
	// bit-identical for every setting.
	SimWorkers int
	// SimWidth is the simulation width in 64-pattern words per net (1,
	// 4 or 8; 0 auto-selects per run). Tables are byte-identical at
	// every width.
	SimWidth int
	// SolverWorkers is passed to every job's flow.Config: LEC SAT
	// queries run on that many portfolio members (0/1 = single solver).
	SolverWorkers int
	// JobTimeout bounds each benchmark×layer job; a job that exceeds it
	// is cancelled and recorded on its row's Errors map, and the other
	// cells keep running. 0 means no per-job deadline. Jobs that finish
	// under the deadline are bit-identical to an unbounded run. A failed
	// cell is not retried in-process: it is a deterministic function of
	// its spec, so only the dispatch coordinator's reassignment (which
	// covers worker deaths) ever runs a cell again.
	JobTimeout time.Duration
	// Manifest, when non-nil, checkpoints every completed cell (and is
	// consulted first, so cells already present are not recomputed).
	// Each completed cell is flushed to disk immediately, making the
	// run resumable after a crash or kill.
	Manifest *runmanifest.Manifest
	// Progress, when non-nil, is called after each cell completes or
	// fails, with the cell key and the running counts (calls are
	// serialized under the run's result lock). It must not influence
	// results — the daemon streams it to job event listeners.
	Progress func(key string, done, total int) `json:"-"`
	// CellRunner, when non-nil, replaces the in-process cell
	// computation: RunITC keeps its manifest-skip, checkpoint, progress
	// and error plumbing but delegates each missing cell here (the
	// dispatch coordinator plugs in at this seam to run cells in worker
	// processes). The runner must be deterministic in (bench, layer) for
	// fixed options — RunITC checkpoints whatever it returns. Under
	// Parallel every missing cell is handed to the runner at once: the
	// coordinator's queue already bounds execution to its fleet.
	CellRunner func(ctx context.Context, bench string, layer int) (SplitResult, error) `json:"-"`
}

func (o ITCOptions) withDefaults() ITCOptions {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = bmarks.ITC99Names()
	}
	if o.Scale <= 0 {
		o.Scale = 0.1
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
// files and error reports ("b14/M4").
func ITCCellKey(bench string, splitLayer int) string {
	return fmt.Sprintf("%s/M%d", bench, splitLayer)
}

// RunITC regenerates Tables I and II (and the footnote 6 numbers).
// Every benchmark×layer job that fails is recorded on its row's Errors
// map and included in the returned error (the rows are returned either
// way, so callers can render the successful cells alongside an explicit
// failure report instead of a silently partial table). A job failure —
// an error, a panic inside the job, or a blown JobTimeout — never
// poisons sibling cells. Cancelling ctx stops issuing new jobs, cancels
// running ones at the next solver/simulation step, and returns ctx's
// error joined with any cell failures; interrupted cells are simply
// absent (not recorded as failures), so a resumed run recomputes them.
func RunITC(ctx context.Context, opt ITCOptions) ([]ITCRow, error) {
	opt = opt.withDefaults()
	rows := make([]ITCRow, len(opt.Benchmarks))
	type job struct{ bi, layer int }
	var jobs []job
	for bi := range opt.Benchmarks {
		rows[bi] = ITCRow{Benchmark: opt.Benchmarks[bi], Results: make(map[int]SplitResult)}
		for _, sl := range opt.SplitLayers {
			if opt.Manifest != nil {
				var res SplitResult
				if ok, err := opt.Manifest.Get(ITCCellKey(opt.Benchmarks[bi], sl), &res); err == nil && ok {
					rows[bi].Results[sl] = res
					continue // checkpointed: skip recompute
				}
			}
			jobs = append(jobs, job{bi, sl})
		}
	}
	if opt.CellRunner == nil {
		opt.SimWorkers = splitSimWorkers(opt.SimWorkers, opt.Parallel, len(jobs))
	}
	// Cells are claimed in row/layer order: one at a time unless
	// Parallel; all at once when a CellRunner queues them at the
	// coordinator; otherwise one per core.
	width := 1
	if opt.Parallel {
		width = runtime.GOMAXPROCS(0)
		if opt.CellRunner != nil {
			width = len(jobs)
		}
	}
	var mu sync.Mutex
	var manifestErr error
	done := 0
	forEachCell(len(jobs), width, func(i int) {
		j := jobs[i]
		if ctx.Err() != nil {
			return
		}
		bench := opt.Benchmarks[j.bi]
		var res SplitResult
		var err error
		if opt.CellRunner != nil {
			res, err = opt.CellRunner(ctx, bench, j.layer)
		} else {
			res, err = runOneITCIsolated(ctx, bench, j.layer, opt)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if ctx.Err() != nil {
				// Interrupted, not failed: leave the cell absent so a
				// resumed run recomputes it. ctx.Err() is joined into
				// the returned error below.
				return
			}
			if rows[j.bi].Errors == nil {
				rows[j.bi].Errors = make(map[int]error)
			}
			rows[j.bi].Errors[j.layer] = err
			done++
			if opt.Progress != nil {
				opt.Progress(ITCCellKey(bench, j.layer), done, len(jobs))
			}
			return
		}
		rows[j.bi].Results[j.layer] = res
		done++
		if opt.Progress != nil {
			opt.Progress(ITCCellKey(bench, j.layer), done, len(jobs))
		}
		if opt.Manifest != nil {
			key := ITCCellKey(bench, j.layer)
			if err := opt.Manifest.Put(key, res); err != nil {
				if manifestErr == nil {
					manifestErr = fmt.Errorf("checkpoint %s: %w", key, err)
				}
			} else if err := opt.Manifest.Flush(); err != nil && manifestErr == nil {
				manifestErr = fmt.Errorf("checkpoint %s: %w", key, err)
			}
		}
		faultpoint.Hit(fpCellDone)
	})
	// Assemble the failure report in deterministic row/layer order.
	var errs []error
	for bi := range rows {
		for _, sl := range opt.SplitLayers {
			if err, ok := rows[bi].Errors[sl]; ok {
				errs = append(errs, fmt.Errorf("%s: %w", ITCCellKey(rows[bi].Benchmark, sl), err))
			}
		}
	}
	if manifestErr != nil {
		errs = append(errs, manifestErr)
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return rows, errors.Join(errs...)
}

// RunITCCell computes one benchmark×layer cell under the in-process
// robustness policy — panic isolation and the per-job deadline. It is
// the worker-side entry point of the dispatch layer: a `tables -worker`
// process calls this once per lease.
func RunITCCell(ctx context.Context, bench string, layer int, opt ITCOptions) (SplitResult, error) {
	return runOneITCIsolated(ctx, bench, layer, opt.withDefaults())
}

// runOneITCIsolated runs one cell under its own deadline and converts a
// panic anywhere inside the job — including one recovered from an
// engine worker goroutine — into an error carrying the panicking
// goroutine's stack.
func runOneITCIsolated(ctx context.Context, bench string, layer int, opt ITCOptions) (res SplitResult, err error) {
	jobCtx := ctx
	if opt.JobTimeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(ctx, opt.JobTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			if pe, ok := engine.AsPanicError(v); ok {
				err = fmt.Errorf("job panicked: %v\n%s", pe.Value, pe.Stack)
			} else {
				err = fmt.Errorf("job panicked: %v\n%s", v, debug.Stack())
			}
			res = SplitResult{}
		}
	}()
	res, err = runOneITC(jobCtx, bench, layer, opt)
	if err != nil && jobCtx.Err() != nil && ctx.Err() == nil {
		err = fmt.Errorf("job exceeded -jobtimeout %v: %w", opt.JobTimeout, err)
	}
	return res, err
}

func runOneITC(ctx context.Context, bench string, splitLayer int, opt ITCOptions) (SplitResult, error) {
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
		KeyBits:       opt.KeyBits,
		SplitLayer:    splitLayer,
		Seed:          opt.Seed + uint64(splitLayer)*1000,
		UseATPGLock:   true,
		SimWidth:      opt.SimWidth,
		SolverWorkers: opt.SolverWorkers,
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
		Workers:  opt.SimWorkers,
		Width:    opt.SimWidth,
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
	// SimWorkers caps the per-job pattern-simulation worker pool
	// (0 = GOMAXPROCS, 1 = serial).
	SimWorkers int
	// SimWidth is the simulation width (1, 4 or 8; 0 auto-selects).
	SimWidth int
	// SolverWorkers is passed to every job's flow.Config (portfolio
	// LEC; 0/1 = single solver).
	SolverWorkers int
}

func (o ISCASOptions) withDefaults() ISCASOptions {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = bmarks.ISCASNames()
	}
	if o.KeyBits <= 0 {
		o.KeyBits = 128
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

// splitSimWorkers resolves the per-job simulation pool so that
// job-level and pattern-level parallelism compose instead of multiply:
// with jobs running concurrently, the default pool is GOMAXPROCS
// divided across the jobs (at least 1), keeping the total worker and
// net-buffer count at ~GOMAXPROCS rather than GOMAXPROCS². An explicit
// SimWorkers setting is passed through untouched.
func splitSimWorkers(simWorkers int, parallel bool, jobs int) int {
	if simWorkers != 0 || !parallel || jobs <= 0 {
		return simWorkers
	}
	w := runtime.GOMAXPROCS(0) / jobs
	if w < 1 {
		w = 1
	}
	return w
}

// RunISCAS regenerates Table III: the three prior-art defenses and the
// proposed scheme, each attacked with the proximity attack. Cancelling
// ctx stops issuing new benchmarks and interrupts running ones.
func RunISCAS(ctx context.Context, opt ISCASOptions) ([]ISCASRow, error) {
	opt = opt.withDefaults()
	opt.SimWorkers = splitSimWorkers(opt.SimWorkers, opt.Parallel, len(opt.Benchmarks))
	return fanOut(ctx, opt.Benchmarks, opt.Parallel, func(bench string) (ISCASRow, error) {
		return runOneISCAS(ctx, bench, opt)
	})
}

// fanOut runs one row per benchmark, one per core when parallel. A
// failed row stays zero. The error is the failure of the lowest-index
// benchmark, prefixed with its name, or ctx's error when none failed;
// cancelling ctx stops issuing new benchmarks.
func fanOut[R any](ctx context.Context, benchmarks []string, parallel bool, run func(bench string) (R, error)) ([]R, error) {
	rows := make([]R, len(benchmarks))
	errs := make([]error, len(benchmarks))
	width := 1
	if parallel {
		width = runtime.GOMAXPROCS(0)
	}
	forEachCell(len(benchmarks), width, func(bi int) {
		if ctx.Err() != nil {
			return
		}
		row, err := run(benchmarks[bi])
		if err != nil {
			errs[bi] = fmt.Errorf("%s: %w", benchmarks[bi], err)
			return
		}
		rows[bi] = row
	})
	for _, err := range errs {
		if err != nil {
			return rows, err
		}
	}
	return rows, ctx.Err()
}

// forEachCell runs cell(0), …, cell(n-1) on engine.Run, one cell per
// batch, claimed in index order by up to width workers; width 1 runs
// them in order on the calling goroutine. Cells check ctx themselves,
// so Run gets no Stop flag and cannot return ErrStopped.
func forEachCell(n, width int, cell func(i int)) {
	_, _ = engine.Run(n, engine.Options{Workers: width, Grain: 1},
		func(int) struct{} { return struct{}{} },
		func(_ struct{}, b engine.Batch) { cell(b.Start) })
}

func runOneISCAS(ctx context.Context, bench string, opt ISCASOptions) (ISCASRow, error) {
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
		asg, err := attack.Proximity(view, attack.ProximityOptions{Seed: opt.Seed + 5})
		if err != nil {
			return row, err
		}
		ccr := metrics.ComputeCCR(view, secret, asg)
		d, err := metrics.FunctionalOpt(orig, view, asg, sim.CompareOptions{
			Patterns: opt.Patterns,
			Seed:     opt.Seed + 6,
			Workers:  opt.SimWorkers,
			Width:    opt.SimWidth,
			Stop:     stop,
		})
		if err != nil {
			return row, err
		}
		row.Schemes[name] = SchemeResult{
			PNR: metrics.PNR(view, secret, asg),
			CCR: ccr.Regular,
			HD:  d.HD,
			OER: d.OER,
		}
	}
	// Proposed: the full SplitLock flow; CCR reports the key-nets'
	// physical CCR (Table III note).
	art, err := Run(ctx, orig, Config{KeyBits: opt.KeyBits, SplitLayer: 4, Seed: opt.Seed + 9,
		UseATPGLock: true, SimWidth: opt.SimWidth, SolverWorkers: opt.SolverWorkers})
	if err != nil {
		return row, err
	}
	asg, err := attack.Proximity(art.View, attack.ProximityOptions{Seed: opt.Seed + 5, KeyPostProcess: true})
	if err != nil {
		return row, err
	}
	ccr := metrics.ComputeCCR(art.View, art.Secret, asg)
	d, err := metrics.FunctionalOpt(orig, art.View, asg, sim.CompareOptions{
		Patterns: opt.Patterns,
		Seed:     opt.Seed + 6,
		Workers:  opt.SimWorkers,
		Width:    opt.SimWidth,
		Stop:     stop,
	})
	if err != nil {
		return row, err
	}
	row.Schemes["proposed"] = SchemeResult{
		PNR: metrics.PNR(art.View, art.Secret, asg),
		CCR: ccr.KeyPhysical,
		HD:  d.HD,
		OER: d.OER,
	}
	return row, nil
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
		o.Scale = 0.1
	}
	if o.KeyBits <= 0 {
		o.KeyBits = 128
	}
	return o
}

// RunFig5 regenerates the Fig. 5 layout cost study. Cancelling ctx
// stops issuing new benchmarks and interrupts running flows.
func RunFig5(ctx context.Context, opt Fig5Options) ([]Fig5Row, error) {
	opt = opt.withDefaults()
	return fanOut(ctx, opt.Benchmarks, opt.Parallel, func(bench string) (Fig5Row, error) {
		return runOneFig5(ctx, bench, opt)
	})
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
	base, err := MeasurePPA(art, VariantBaseline)
	if err != nil {
		return row, err
	}
	prelift, err := MeasurePPA(art, VariantPrelift)
	if err != nil {
		return row, err
	}
	m4, err := MeasurePPA(art, VariantSplit)
	if err != nil {
		return row, err
	}
	art6 := *art
	art6.Config.SplitLayer = 6
	m6, err := MeasurePPA(&art6, VariantSplit)
	if err != nil {
		return row, err
	}
	delta := func(p metrics.PPA) CostDelta {
		a, pw, d := p.Delta(base)
		return CostDelta{Area: a, Power: pw, Timing: d}
	}
	row.Prelift = delta(prelift)
	row.M4 = delta(m4)
	row.M6 = delta(m6)
	return row, nil
}

// IdealAttackResult summarizes the Sec. IV-A ideal-attack experiment.
type IdealAttackResult struct {
	Runs int
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

// RunIdealAttack performs the ideal proximity attack experiment:
// regular nets granted, key-nets guessed randomly, repeated `runs`
// times (the paper uses 1,000,000). Runs are sharded across the engine
// worker pool — each worker mutates its own clone of the recovered
// netlist — and every run is independently seeded, so the tallies do
// not depend on the worker count. Cancelling ctx drains the pool and
// returns the context's error.
func RunIdealAttack(ctx context.Context, bench string, scale float64, keyBits, runs, patterns int, seed uint64) (IdealAttackResult, error) {
	res := IdealAttackResult{Runs: runs}
	orig, err := bmarks.Load(bench, scale)
	if err != nil {
		return res, err
	}
	art, err := Run(ctx, orig, Config{KeyBits: keyBits, SplitLayer: 4, Seed: seed, UseATPGLock: true})
	if err != nil {
		return res, err
	}
	if patterns <= 0 {
		patterns = 256
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
					Patterns: patterns,
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
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
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

// ActivityForPPA re-exports sim.Activity for callers assembling custom
// PPA studies.
func ActivityForPPA(c *netlist.Circuit, patterns int, seed uint64) ([]float64, error) {
	return sim.Activity(c, patterns, seed)
}
