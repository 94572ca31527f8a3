package flow

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/aig"
	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/engine"
	"repro/internal/lec"
	"repro/internal/locking"
	"repro/internal/netlist"
	"repro/internal/runmanifest"
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
	// JobTable runs the Table I/II benchmark×layer sweep; it is the
	// long-running kind that checkpoints cells through a manifest and
	// resumes after a daemon restart.
	JobTable JobKind = "table"
)

// JobSpec is the wire-format description of one job (the POST /v1/jobs
// body). Zero-valued fields take kind-appropriate defaults; results are
// deterministic functions of the spec, never of wall clock.
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// Bench is the benchmark name for lock/verify/attack jobs.
	Bench string `json:"bench,omitempty"`
	// Benchmarks is the benchmark subset for table jobs (default: the
	// full ITC'99 set).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scale shrinks the synthetic benchmarks (default 0.1).
	Scale float64 `json:"scale,omitempty"`
	// KeyBits is the key size (default 128).
	KeyBits int `json:"keybits,omitempty"`
	// SplitLayer is the first BEOL layer for lock jobs (default 4).
	SplitLayer int `json:"split_layer,omitempty"`
	// SplitLayers is the layer axis for table jobs (default {4, 6}).
	SplitLayers []int `json:"split_layers,omitempty"`
	// Seed drives everything (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Patterns is the simulation depth: LEC prefilter patterns for
	// verify, success-check and HD/OER depth for attack/table (0 =
	// engine defaults).
	Patterns int `json:"patterns,omitempty"`
	// MaxIter caps SAT-attack distinguishing-input queries (default 256).
	MaxIter int `json:"max_iter,omitempty"`
	// SolverWorkers is the portfolio width (0/1 = single solver). A
	// daemon clamps it to its solver pool's size before the job is
	// prepared, so the cache key names the width the job runs with.
	SolverWorkers int `json:"solver_workers,omitempty"`
	// RandomLock selects plain random locking instead of the paper's
	// cost-driven ATPG scheme.
	RandomLock bool `json:"random_lock,omitempty"`
	// NoParallel serializes a table job's benchmark×layer cells.
	NoParallel bool `json:"no_parallel,omitempty"`
}

func (s JobSpec) withDefaults() JobSpec {
	if s.Scale <= 0 {
		s.Scale = 0.1
	}
	if s.KeyBits <= 0 {
		s.KeyBits = 128
	}
	if s.SplitLayer == 0 {
		s.SplitLayer = 4
	}
	if len(s.SplitLayers) == 0 {
		s.SplitLayers = []int{4, 6}
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate rejects malformed specs with a client-presentable error.
func (s JobSpec) Validate() error {
	var benches []string
	switch s.Kind {
	case JobLock, JobVerify, JobAttack:
		if s.Bench == "" {
			return fmt.Errorf("flow: job kind %q requires \"bench\"", s.Kind)
		}
		benches = []string{s.Bench}
	case JobTable:
		benches = s.Benchmarks
	case "":
		return fmt.Errorf("flow: job spec is missing \"kind\"")
	default:
		return fmt.Errorf("flow: unknown job kind %q", s.Kind)
	}
	return validateDesign(benches, s.Scale, s.KeyBits)
}

// validateDesign is the design check every daemon entry point applies
// before any compute starts: known benchmarks, scale in [0, 1] and
// keybits in [0, 4096] (0 selects the default for both).
func validateDesign(benches []string, scale float64, keyBits int) error {
	if err := bmarks.Validate(benches); err != nil {
		return fmt.Errorf("flow: %w", err)
	}
	if scale < 0 || scale > 1 {
		return fmt.Errorf("flow: scale %v out of range [0, 1]", scale)
	}
	if keyBits < 0 || keyBits > 4096 {
		return fmt.Errorf("flow: keybits %d out of range [0, 4096]", keyBits)
	}
	return nil
}

// TableFingerprint is the manifest fingerprint a table job checkpoints
// under; a restarted daemon resumes the job only against a manifest
// with a compatible fingerprint.
func (s JobSpec) TableFingerprint() runmanifest.Fingerprint {
	d := s.withDefaults()
	benches := d.Benchmarks
	if len(benches) == 0 {
		benches = bmarks.ITC99Names()
	}
	patterns := d.Patterns
	if patterns <= 0 {
		patterns = 1 << 16
	}
	return runmanifest.Fingerprint{
		Experiment:  "splitlockd-table",
		Scale:       d.Scale,
		KeyBits:     d.KeyBits,
		Patterns:    patterns,
		Seed:        d.Seed,
		SplitLayers: append([]int(nil), d.SplitLayers...),
		Benchmarks:  append([]string(nil), benches...),
	}
}

// JobEvent is one progress notification streamed to job watchers.
type JobEvent struct {
	Stage   string `json:"stage"`
	Message string `json:"message"`
}

// JobRuntime carries the daemon-owned resources a job runs against.
// All fields are optional: a nil Pool builds spec-sized solvers
// locally, a nil Manifest disables table checkpointing, a nil Emit
// discards progress events.
type JobRuntime struct {
	// Pool rations solver members across concurrent jobs; the job
	// acquires a lease for its solving phase and sizes its portfolio to
	// the grant.
	Pool *sat.Pool
	// Manifest checkpoints table-job cells for crash/drain resume.
	Manifest *runmanifest.Manifest
	// Emit receives progress events (called from the job goroutine).
	Emit func(JobEvent)
}

func (rt JobRuntime) emit(stage, format string, args ...any) {
	if rt.Emit != nil {
		rt.Emit(JobEvent{Stage: stage, Message: fmt.Sprintf(format, args...)})
	}
}

// Job is one prepared unit of daemon work: spec plus the loaded and
// locked design and its strash fingerprint. Not safe for concurrent
// use; the daemon runs each job on one goroutine.
type Job struct {
	Spec JobSpec
	orig *netlist.Circuit
	lk   *locking.Locked
	rep  *locking.ATPGLockReport // nil for random locking
	fp   aig.Fingerprint
}

// NewJob validates the spec and returns an unprepared job.
func NewJob(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Job{Spec: spec.withDefaults()}, nil
}

// Prepare loads the benchmark, locks it, and computes the canonical
// strashed-graph fingerprint — the deterministic prefix every
// lock/verify/attack job shares. The daemon runs Prepare before
// consulting the result cache, unless it remembers the fingerprint of
// an earlier job with the same PrepareKey: jobs whose fingerprints
// (and result-affecting options) match skip the sweep/SAT/layout work
// entirely. Prepare is idempotent and a no-op for table jobs.
func (j *Job) Prepare(ctx context.Context) error {
	if j.Spec.Kind == JobTable || j.orig != nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	orig, err := bmarks.Load(j.Spec.Bench, j.Spec.Scale)
	if err != nil {
		return err
	}
	lk, rep, err := lockDesign(orig, j.Spec.KeyBits, j.lockSeed(), !j.Spec.RandomLock)
	if err != nil {
		return err
	}
	// Fingerprint both sides of the verification problem over one
	// shared strashed graph (key TIE cells as free leaves, exactly the
	// attack's view), rooted at the original's observables then the
	// locked circuit's: the canonical content address of this
	// (original, locked) pair.
	bld := aig.NewBuilder()
	for _, kb := range lk.KeyBits {
		bld.ForceLeaf(lk.Circuit.Gate(kb.Tie).Name)
	}
	mo, err := bld.Add(orig)
	if err != nil {
		return fmt.Errorf("flow: fingerprint: %w", err)
	}
	ml, err := bld.Add(lk.Circuit)
	if err != nil {
		return fmt.Errorf("flow: fingerprint: %w", err)
	}
	roots := append(obsLits(orig, mo), obsLits(lk.Circuit, ml)...)
	j.orig, j.lk, j.rep, j.fp = orig, lk, rep, bld.Fingerprint(roots...)
	return nil
}

// PrepareKey names what Prepare computes: jobs with equal keys load and
// lock the same design and so get the same Fingerprint. It is "" for
// table jobs, which Prepare skips.
func (j *Job) PrepareKey() string {
	if j.Spec.Kind == JobTable {
		return ""
	}
	s := j.Spec
	return fmt.Sprintf("%s|x%v|k%d|ls%d|r%t", s.Bench, s.Scale, s.KeyBits, j.lockSeed(), s.RandomLock)
}

// lockSeed matches the seed derivation of the table sweep's per-cell
// flow config, so a lock/verify/attack job on the same (bench, layer,
// seed) works on the same locked circuit as the corresponding table
// cell.
func (j *Job) lockSeed() uint64 {
	return j.Spec.Seed + uint64(j.Spec.SplitLayer)*1000
}

// obsLits collects a circuit's observable literals: outputs in
// declaration order, then next-state cones in flip-flop order.
func obsLits(c *netlist.Circuit, m aig.LitMap) []aig.Lit {
	var roots []aig.Lit
	for _, o := range c.Outputs() {
		roots = append(roots, m[o])
	}
	for _, ff := range c.DFFs() {
		roots = append(roots, m[c.Gate(ff).Fanin[0]])
	}
	return roots
}

// Fingerprint returns the canonical strash fingerprint (zero until
// Prepare; always zero for table jobs).
func (j *Job) Fingerprint() aig.Fingerprint { return j.fp }

// CacheKey is the content address of the job's result, or "" for
// uncacheable jobs. Table jobs are uncacheable (they checkpoint through
// manifests instead). The key combines the structural fingerprint with
// every result-affecting option.
func (j *Job) CacheKey() string { return j.CacheKeyFor(j.fp) }

// CacheKeyFor is CacheKey for a job whose fingerprint is fp, known
// without running Prepare (from an earlier job with the same
// PrepareKey). It is "" when fp is zero.
func (j *Job) CacheKeyFor(fp aig.Fingerprint) string {
	if j.Spec.Kind == JobTable || fp.IsZero() {
		return ""
	}
	s := j.Spec
	return fmt.Sprintf("%s|%s|l%d|seed%d|p%d|mi%d|sw%d", s.Kind, fp, s.SplitLayer, s.Seed, s.Patterns, s.MaxIter, s.SolverWorkers)
}

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

// TableJobRow is one benchmark's cells in a table job result, with map
// keys rendered as strings so the JSON payload is deterministic.
type TableJobRow struct {
	Benchmark string                 `json:"benchmark"`
	Cells     map[string]SplitResult `json:"cells"`
	Errors    map[string]string      `json:"errors,omitempty"`
}

// TableJobResult is the Table I/II sweep payload.
type TableJobResult struct {
	Rows []TableJobRow `json:"rows"`
}

// Run executes the job and returns its JSON-marshalable result. The
// result deliberately excludes wall-clock fields so an identical job
// served from cache (or a table job resumed from a manifest) is
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
	case JobTable:
		return j.runTable(ctx, rt)
	}
	return nil, fmt.Errorf("flow: unknown job kind %q", j.Spec.Kind)
}

// newSolver builds the job's SAT backend, leasing pool slots when the
// runtime has a pool. The returned release func must be called when the
// job's solving is done.
func (j *Job) newSolver(ctx context.Context, rt JobRuntime, stop *atomic.Bool) (sat.Interface, func(), error) {
	want := j.Spec.SolverWorkers
	if want < 1 {
		want = 1
	}
	popt := sat.PortfolioOptions{Workers: want, Seed: j.Spec.Seed, Stop: stop}
	if rt.Pool == nil {
		if want == 1 {
			return sat.NewWithOptions(sat.Options{ExternalStop: stop}), func() {}, nil
		}
		return sat.NewPortfolio(popt), func() {}, nil
	}
	lease, err := rt.Pool.Acquire(ctx, want)
	if err != nil {
		return nil, nil, err
	}
	return lease.NewPortfolio(popt), lease.Release, nil
}

func (j *Job) runLock(ctx context.Context, rt JobRuntime) (any, error) {
	stop, release := engine.WatchContext(ctx)
	defer release()
	solver, releaseSolver, err := j.newSolver(ctx, rt, stop)
	if err != nil {
		return nil, err
	}
	defer releaseSolver()
	// Prepare already ran the flow's lock step with the flow's seed;
	// run the rest of the flow on that design.
	rt.emit("lock", "locked %s in prepare (%d gates, %d key bits)", j.Spec.Bench, j.orig.NumGates(), len(j.lk.KeyBits))
	cfg := Config{
		KeyBits:       j.Spec.KeyBits,
		SplitLayer:    j.Spec.SplitLayer,
		Seed:          j.lockSeed(),
		UseATPGLock:   !j.Spec.RandomLock,
		SolverWorkers: j.Spec.SolverWorkers,
	}.withDefaults()
	art, err := runLocked(ctx, j.orig, j.lk, j.rep, cfg, time.Now(), solver,
		func(stage, msg string) { rt.emit(stage, "%s", msg) })
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
	solver, releaseSolver, err := j.newSolver(ctx, rt, stop)
	if err != nil {
		return nil, err
	}
	defer releaseSolver()
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
	solver, releaseSolver, err := j.newSolver(ctx, rt, stop)
	if err != nil {
		return nil, err
	}
	defer releaseSolver()
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

func (j *Job) runTable(ctx context.Context, rt JobRuntime) (any, error) {
	resumed := 0
	if rt.Manifest != nil {
		resumed = rt.Manifest.Len()
	}
	if resumed > 0 {
		// Goes to the event stream, never into the result payload: a
		// resumed table must stay byte-identical to an uninterrupted run.
		rt.emit("table", "resuming with %d checkpointed cells", resumed)
	}
	rows, err := RunITC(ctx, ITCOptions{
		Benchmarks:    j.Spec.Benchmarks,
		Scale:         j.Spec.Scale,
		KeyBits:       j.Spec.KeyBits,
		Patterns:      j.Spec.Patterns,
		Seed:          j.Spec.Seed,
		SplitLayers:   j.Spec.SplitLayers,
		Parallel:      !j.Spec.NoParallel,
		SolverWorkers: j.Spec.SolverWorkers,
		Manifest:      rt.Manifest,
		Progress: func(key string, done, total int) {
			rt.emit("table", "cell %s done (%d/%d)", key, done, total)
		},
	})
	if err != nil {
		return nil, err
	}
	out := &TableJobResult{Rows: make([]TableJobRow, len(rows))}
	for i, row := range rows {
		r := TableJobRow{Benchmark: row.Benchmark, Cells: make(map[string]SplitResult)}
		for sl, res := range row.Results {
			r.Cells[fmt.Sprintf("M%d", sl)] = res
		}
		for sl, cerr := range row.Errors {
			if r.Errors == nil {
				r.Errors = make(map[string]string)
			}
			r.Errors[fmt.Sprintf("M%d", sl)] = cerr.Error()
		}
		out.Rows[i] = r
	}
	return out, nil
}
