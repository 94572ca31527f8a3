package flow

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/engine"
	"repro/internal/layout"
	"repro/internal/lec"
	"repro/internal/locking"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sim"
)

// JobKind names a daemon job type.
type JobKind string

// The job kinds splitlockd serves.
const (
	// JobLock runs the full Fig. 3 flow (lock, LEC, place, route,
	// split) and reports the locking/verification summary.
	JobLock JobKind = "lock"
	// JobVerify checks the locked netlist against the original with the
	// LEC engine and reports the verdict and structural statistics.
	JobVerify JobKind = "verify"
	// JobAttack runs the oracle-guided SAT attack against the locked
	// netlist (demonstrating Sec. II-C: with an oracle the lock falls).
	JobAttack JobKind = "attack"
)

// JobSpec is the wire-format description of one job (the POST /v1/jobs
// body). Zero-valued fields take kind-appropriate defaults; results are
// deterministic functions of the spec, never of wall clock.
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// Bench is the benchmark name.
	Bench string `json:"bench,omitempty"`
	// Scale shrinks the synthetic benchmarks (default 0.1).
	Scale float64 `json:"scale,omitempty"`
	// KeyBits is the key size (default 128).
	KeyBits int `json:"keybits,omitempty"`
	// SplitLayer is the first BEOL layer for lock jobs (default 4).
	SplitLayer int `json:"split_layer,omitempty"`
	// Seed drives everything (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Patterns is the simulation depth: LEC prefilter patterns for
	// verify, the recovered-key success check for attack (0 = engine
	// defaults, at most sim.MaxPatterns).
	Patterns int `json:"patterns,omitempty"`
	// MaxIter caps SAT-attack distinguishing-input queries (default 256).
	MaxIter int `json:"max_iter,omitempty"`
	// SolverWorkers is the portfolio width (default 1, a single
	// solver). A daemon clamps it to its width cap (-solverslots)
	// before it forms the cache key, so the key names the width the job
	// runs with.
	SolverWorkers int `json:"solver_workers,omitempty"`
	// RandomLock selects plain random locking instead of the paper's
	// cost-driven ATPG scheme.
	RandomLock bool `json:"random_lock,omitempty"`
}

func (s JobSpec) withDefaults() JobSpec {
	if s.Scale <= 0 {
		s.Scale = defaultScale
	}
	if s.KeyBits <= 0 {
		s.KeyBits = 128
	}
	if s.SplitLayer == 0 {
		s.SplitLayer = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SolverWorkers < 1 {
		s.SolverWorkers = 1
	}
	return s
}

// Validate rejects malformed specs with a client-presentable error.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case JobLock, JobVerify, JobAttack:
		if s.Bench == "" {
			return fmt.Errorf("flow: job kind %q requires \"bench\"", s.Kind)
		}
	case "":
		return fmt.Errorf("flow: job spec is missing \"kind\"")
	default:
		return fmt.Errorf("flow: unknown job kind %q", s.Kind)
	}
	if err := ValidateSplitLayer(s.SplitLayer); err != nil {
		return err
	}
	return ValidateDesign(s.Bench, s.Scale, s.KeyBits, s.Patterns)
}

// ValidateDesign is the design rule every entry point applies before
// any compute starts (daemon jobs and cells, and every benchmark a
// tables run selects): a known benchmark, scale in [0, 1] and keybits
// in [0, 4096] (0 selects the default for both), and patterns in [0,
// sim.MaxPatterns].
func ValidateDesign(bench string, scale float64, keyBits, patterns int) error {
	if err := bmarks.Validate([]string{bench}); err != nil {
		return fmt.Errorf("flow: %w", err)
	}
	if scale < 0 || scale > 1 {
		return fmt.Errorf("flow: scale %v out of range [0, 1]", scale)
	}
	if err := ValidateKeyBits(keyBits); err != nil {
		return err
	}
	if patterns < 0 || patterns > sim.MaxPatterns {
		return fmt.Errorf("flow: patterns %d out of range [0, %d]", patterns, sim.MaxPatterns)
	}
	return nil
}

// ValidateSplitLayer is the split-layer rule of every entry point that
// takes one (daemon jobs and cells, splitlock and attack): 0 selects
// the default M4 (a cell needs a non-zero layer); otherwise the split sits above M1, which holds the
// cell pins, and below the top layer, because lifted key-nets route on
// the layer above the split.
func ValidateSplitLayer(layer int) error {
	if layer != 0 && (layer < 2 || layer > layout.NumLayers-1) {
		return fmt.Errorf("flow: split layer %d out of range [2, %d]", layer, layout.NumLayers-1)
	}
	return nil
}

// ValidateKeyBits is ValidateDesign's key-size rule, for designs that
// are not registered benchmarks (a .bench file): keyBits must be in
// [0, 4096], where 0 means the default 128.
func ValidateKeyBits(keyBits int) error {
	if keyBits < 0 || keyBits > 4096 {
		return fmt.Errorf("flow: keybits %d out of range [0, 4096]", keyBits)
	}
	return nil
}

// JobEvent is one progress notification streamed to job watchers.
type JobEvent struct {
	Stage   string `json:"stage"`
	Message string `json:"message"`
}

// JobRuntime carries the daemon-owned resources a job runs against:
// the daemon's manager and perfbench's traced jobs pass both, and
// flow.Run passes the zero JobRuntime. Either field may be nil: a nil
// Pool builds spec-sized solvers, a nil Emit discards progress events.
type JobRuntime struct {
	// Pool caps the job's portfolio width at Pool.Total() members.
	Pool *sat.Pool
	// Emit receives progress events (called from the job goroutine).
	Emit func(JobEvent)
}

func (rt JobRuntime) emit(stage, format string, args ...any) {
	if rt.Emit != nil {
		rt.Emit(JobEvent{Stage: stage, Message: fmt.Sprintf(format, args...)})
	}
}

// Job is one unit of daemon work: spec plus, once prepared, the loaded
// and locked design. Not safe for concurrent use; the daemon runs each
// job on one goroutine.
type Job struct {
	Spec JobSpec
	orig *netlist.Circuit
	lk   *locking.Locked
	rep  *locking.ATPGLockReport // nil for random locking
}

// NewJob validates the spec and returns an unprepared job.
func NewJob(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Job{Spec: spec.withDefaults()}, nil
}

// Prepare loads the benchmark and locks it — the deterministic prefix
// every lock/verify/attack job shares. The daemon prepares only jobs
// whose result it does not have cached. Prepare is idempotent.
// Cancelling ctx stops it inside the lock step too, and it then returns
// ctx's error.
func (j *Job) Prepare(ctx context.Context) error {
	if j.orig != nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	orig, err := bmarks.Load(j.Spec.Bench, j.Spec.Scale)
	if err != nil {
		return err
	}
	lk, rep, err := lockDesign(ctx, orig, j.Spec.KeyBits, j.lockSeed(), !j.Spec.RandomLock)
	if err != nil {
		return err
	}
	j.orig, j.lk, j.rep = orig, lk, rep
	return nil
}

// lockSeed is the table cell's seed (LayerSeed), so a job on the same
// (bench, layer, seed) works on the same locked circuit as that cell.
func (j *Job) lockSeed() uint64 {
	return LayerSeed(j.Spec.Seed, j.Spec.SplitLayer)
}

// CacheKey names the job's result: every field of its normalized spec.
// Results are deterministic functions of the spec, so jobs with equal
// keys have byte-identical payloads. The key needs no Prepare.
func (j *Job) CacheKey() string { return fmt.Sprintf("%+v", j.Spec) }

// LockJobResult summarizes a lock job: the full Fig. 3 flow ran and the
// locked design passed LEC, placement, routing, and splitting.
type LockJobResult struct {
	Bench       string     `json:"bench"`
	Gates       int        `json:"gates"`
	LockedGates int        `json:"locked_gates"`
	KeyBits     int        `json:"keybits"`
	SplitLayer  int        `json:"split_layer"`
	Scheme      string     `json:"scheme"`
	LECStats    *lec.Stats `json:"lec_stats,omitempty"`
}

// VerifyJobResult reports the LEC verdict for a verify job.
type VerifyJobResult struct {
	Bench       string    `json:"bench"`
	Gates       int       `json:"gates"`
	LockedGates int       `json:"locked_gates"`
	KeyBits     int       `json:"keybits"`
	Equivalent  bool      `json:"equivalent"`
	UsedSAT     bool      `json:"used_sat"`
	Stats       lec.Stats `json:"stats"`
}

// AttackJobResult reports the SAT attack outcome for an attack job.
type AttackJobResult struct {
	Bench       string `json:"bench"`
	KeyBits     int    `json:"keybits"`
	Key         string `json:"key"`
	Iterations  int    `json:"iterations"`
	Converged   bool   `json:"converged"`
	SolveCalls  int    `json:"solve_calls"`
	OracleEvals int    `json:"oracle_evals"`
	// Success is the ground-truth check: the recovered key applied to
	// the locked netlist simulates equivalent to the original.
	Success bool `json:"success"`
}

// Run executes the job and returns its JSON-marshalable result. The
// result deliberately excludes wall-clock fields so an identical job
// served from cache (or requeued after a daemon drain) is
// byte-identical to a cold uninterrupted run. Cancelling ctx stops the
// job at the next stage/solver/simulation step.
func (j *Job) Run(ctx context.Context, rt JobRuntime) (any, error) {
	if err := j.Prepare(ctx); err != nil {
		return nil, err
	}
	switch j.Spec.Kind {
	case JobLock:
		return j.runLock(ctx, rt)
	case JobVerify:
		return j.runVerify(ctx, rt)
	case JobAttack:
		return j.runAttack(ctx, rt)
	}
	return nil, fmt.Errorf("flow: unknown job kind %q", j.Spec.Kind)
}

// newSolver builds the job's SAT backend: a portfolio of the spec's
// width, capped at the runtime pool's total when there is a pool.
func (j *Job) newSolver(rt JobRuntime, stop *atomic.Bool) sat.Interface {
	workers := j.Spec.SolverWorkers
	if rt.Pool != nil {
		workers = min(workers, rt.Pool.Total())
	}
	return sat.NewPortfolio(sat.PortfolioOptions{Workers: workers, Seed: j.Spec.Seed, Stop: stop})
}

func (j *Job) runLock(ctx context.Context, rt JobRuntime) (any, error) {
	stop, release := engine.WatchContext(ctx)
	defer release()
	solver := j.newSolver(rt, stop)
	// Prepare already ran the flow's lock step with the flow's seed;
	// run the rest of the flow on that design.
	rt.emit("lock", "locked %s in prepare (%d gates, %d key bits)", j.Spec.Bench, j.orig.NumGates(), len(j.lk.KeyBits))
	cfg := Config{
		KeyBits:     j.Spec.KeyBits,
		SplitLayer:  j.Spec.SplitLayer,
		Seed:        j.lockSeed(),
		UseATPGLock: !j.Spec.RandomLock,
	}.withDefaults()
	art, err := runLocked(ctx, j.orig, j.lk, j.rep, cfg, time.Now(), solver, rt)
	if err != nil {
		return nil, err
	}
	return &LockJobResult{
		Bench:       j.Spec.Bench,
		Gates:       j.orig.NumGates(),
		LockedGates: art.Locked.Circuit.NumGates(),
		KeyBits:     len(art.Locked.KeyBits),
		SplitLayer:  j.Spec.SplitLayer,
		Scheme:      art.Locked.Scheme,
		LECStats:    art.LECStats,
	}, nil
}

func (j *Job) runVerify(ctx context.Context, rt JobRuntime) (any, error) {
	stop, release := engine.WatchContext(ctx)
	defer release()
	solver := j.newSolver(rt, stop)
	rt.emit("lec", "checking %s against its locked netlist (%d gates)", j.Spec.Bench, j.lk.Circuit.NumGates())
	res, err := lec.Check(j.orig, j.lk.Circuit, lec.Options{
		Seed:              j.Spec.Seed,
		PrefilterPatterns: j.Spec.Patterns,
		Solver:            solver,
		Stop:              stop,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("flow: LEC: %w", err)
	}
	return &VerifyJobResult{
		Bench:       j.Spec.Bench,
		Gates:       j.orig.NumGates(),
		LockedGates: j.lk.Circuit.NumGates(),
		KeyBits:     len(j.lk.KeyBits),
		Equivalent:  res.Equivalent,
		UsedSAT:     res.UsedSAT,
		Stats:       res.Stats,
	}, nil
}

func (j *Job) runAttack(ctx context.Context, rt JobRuntime) (any, error) {
	stop, release := engine.WatchContext(ctx)
	defer release()
	solver := j.newSolver(rt, stop)
	rt.emit("attack", "SAT attack on %s (%d key bits)", j.Spec.Bench, len(j.lk.KeyBits))
	res, err := attack.SATAttackOpt(j.lk, j.orig, attack.SATAttackOptions{
		MaxIter: j.Spec.MaxIter,
		Solver:  solver,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("flow: attack: %w", err)
	}
	out := &AttackJobResult{
		Bench:       j.Spec.Bench,
		KeyBits:     len(j.lk.KeyBits),
		Key:         res.Key.String(),
		Iterations:  res.Iterations,
		Converged:   res.Converged,
		SolveCalls:  res.SolveCalls,
		OracleEvals: res.OracleEvals,
	}
	if !res.Converged {
		// The query cap ran out before the key was pinned down: there
		// is no key to check, and the attack failed.
		rt.emit("attack", "attack stopped after %d queries without converging", res.Iterations)
		return out, nil
	}
	rt.emit("attack", "attack finished after %d queries, checking recovered key", res.Iterations)
	recovered, err := j.lk.ApplyKey(res.Key)
	if err != nil {
		return nil, fmt.Errorf("flow: attack: %w", err)
	}
	patterns := j.Spec.Patterns
	if patterns <= 0 {
		patterns = 1 << 14
	}
	eq, err := sim.EquivalentOpt(j.orig, recovered, sim.CompareOptions{
		Patterns: patterns,
		Seed:     j.Spec.Seed + 3,
		Stop:     stop,
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	out.Success = eq
	return out, nil
}
