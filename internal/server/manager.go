package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/runmanifest"
	"repro/internal/sat"
)

// JobStatus is the lifecycle state of a daemon job.
type JobStatus string

// Job lifecycle states. queued → running → done|failed|interrupted;
// interrupted jobs (drained mid-run) are requeued when the daemon
// restarts.
const (
	StatusQueued      JobStatus = "queued"
	StatusRunning     JobStatus = "running"
	StatusDone        JobStatus = "done"
	StatusFailed      JobStatus = "failed"
	StatusInterrupted JobStatus = "interrupted"
)

// ErrQueueFull is returned by Submit when the admission queue is at
// capacity; the HTTP layer maps it to 503.
var ErrQueueFull = errors.New("server: job queue is full")

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("server: daemon is draining")

// JobRecord is the persisted, client-visible state of one job.
type JobRecord struct {
	ID     string          `json:"id"`
	Spec   flow.JobSpec    `json:"spec"`
	Status JobStatus       `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Cache records how the result was obtained: "miss", "hit",
	// "coalesced", or empty for uncacheable kinds.
	Cache string `json:"cache,omitempty"`
}

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// StateDir holds the jobs journal and per-table-job cell manifests;
	// it is created if missing. Empty runs the manager in memory (no
	// restart resume).
	StateDir string
	// MaxJobs bounds concurrently running jobs (default 2).
	MaxJobs int
	// QueueLimit bounds jobs waiting for a runner; Submit beyond it
	// fails with ErrQueueFull (default 64). Restart requeue ignores the
	// limit — previously admitted jobs are never dropped.
	QueueLimit int
	// SolverSlots is the shared solver pool capacity (0 = GOMAXPROCS).
	SolverSlots int
	// CacheEntries bounds the result cache (0 = 128).
	CacheEntries int
	// JobTimeout is the per-job deadline (0 = none). A job that blows
	// it fails; drain interruption is not a timeout.
	JobTimeout time.Duration
	// MaxCells bounds concurrently running dispatched table cells (the
	// POST /v1/cells remote-worker leg); requests beyond it queue,
	// heartbeating while they wait. Default: MaxJobs.
	MaxCells int
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 2
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 64
	}
	if o.MaxCells <= 0 {
		o.MaxCells = o.MaxJobs
	}
	return o
}

// jobState is the in-memory side of one job: its record plus the event
// log and live subscribers.
type jobState struct {
	rec    JobRecord
	events []flow.JobEvent
	subs   map[chan flow.JobEvent]struct{}
	cancel context.CancelFunc // non-nil while running
	done   chan struct{}      // closed on terminal status
}

func (js *jobState) terminal() bool {
	switch js.rec.Status {
	case StatusDone, StatusFailed, StatusInterrupted:
		return true
	}
	return false
}

// Manager owns the daemon's jobs: admission, execution, persistence,
// caching, and drain. It is safe for concurrent use.
type Manager struct {
	opt   ManagerOptions
	pool  *sat.Pool
	cache *Cache

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*jobState
	queue    []string // job IDs awaiting a runner, FIFO
	seq      int
	draining bool
	journal  *runmanifest.Manifest
	cellSem  chan struct{} // counting semaphore for dispatched cells

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
}

// jobsJournalFP is the fingerprint of the jobs journal manifest; only
// the experiment name matters (the journal is not an experiment run,
// but reusing runmanifest buys atomic flushes and stale-temp hygiene).
func jobsJournalFP() runmanifest.Fingerprint {
	return runmanifest.Fingerprint{Experiment: "splitlockd-jobs"}
}

// NewManager loads (or initializes) the state directory, requeues jobs
// that were queued, running, or interrupted when the previous daemon
// exited, and starts the runner goroutines.
func NewManager(opt ManagerOptions) (*Manager, error) {
	opt = opt.withDefaults()
	m := &Manager{
		opt:     opt,
		pool:    sat.NewPool(opt.SolverSlots),
		cache:   NewCache(opt.CacheEntries),
		jobs:    make(map[string]*jobState),
		cellSem: make(chan struct{}, opt.MaxCells),
	}
	m.cond = sync.NewCond(&m.mu)
	m.rootCtx, m.rootCancel = context.WithCancel(context.Background())
	if opt.StateDir != "" {
		if err := os.MkdirAll(opt.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
		path := filepath.Join(opt.StateDir, "jobs.json")
		if _, err := os.Stat(path); err == nil {
			j, err := runmanifest.Load(path)
			if err != nil {
				return nil, fmt.Errorf("server: jobs journal: %w", err)
			}
			if err := j.Fingerprint().CompatibleWith(jobsJournalFP()); err != nil {
				return nil, fmt.Errorf("server: jobs journal is not a splitlockd journal: %w", err)
			}
			m.journal = j
		} else {
			m.journal = runmanifest.New(path, jobsJournalFP())
		}
		if err := m.restore(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opt.MaxJobs; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// restore rebuilds the in-memory job table from the journal and
// requeues unfinished jobs in ID order, so a restarted daemon picks up
// exactly where the drained one stopped.
func (m *Manager) restore() error {
	keys := m.journal.Keys() // sorted; IDs are zero-padded
	for _, id := range keys {
		var rec JobRecord
		if ok, err := m.journal.Get(id, &rec); err != nil || !ok {
			return fmt.Errorf("server: jobs journal entry %s: %w", id, err)
		}
		var n int
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
		js := &jobState{rec: rec, subs: make(map[chan flow.JobEvent]struct{}), done: make(chan struct{})}
		switch rec.Status {
		case StatusQueued, StatusRunning, StatusInterrupted:
			// Previously admitted but unfinished: requeue (bypassing the
			// admission limit — the job was already accepted once).
			js.rec.Status = StatusQueued
			js.rec.Error = ""
			m.queue = append(m.queue, rec.ID)
		default:
			close(js.done)
		}
		m.jobs[rec.ID] = js
	}
	// Re-persist any status rewrites (interrupted → queued).
	return m.persistLocked()
}

// persistLocked writes every job record to the journal and flushes.
// Callers hold m.mu (or are in single-threaded setup).
func (m *Manager) persistLocked() error {
	if m.journal == nil {
		return nil
	}
	for id, js := range m.jobs {
		if err := m.journal.Put(id, js.rec); err != nil {
			return err
		}
	}
	return m.journal.Flush()
}

// Submit validates and admits a job. The returned record is a snapshot.
func (m *Manager) Submit(spec flow.JobSpec) (JobRecord, error) {
	if _, err := flow.NewJob(spec); err != nil {
		return JobRecord{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return JobRecord{}, ErrDraining
	}
	if len(m.queue) >= m.opt.QueueLimit {
		return JobRecord{}, ErrQueueFull
	}
	m.seq++
	id := fmt.Sprintf("job-%06d", m.seq)
	js := &jobState{
		rec:  JobRecord{ID: id, Spec: spec, Status: StatusQueued},
		subs: make(map[chan flow.JobEvent]struct{}),
		done: make(chan struct{}),
	}
	m.jobs[id] = js
	m.queue = append(m.queue, id)
	if err := m.persistLocked(); err != nil {
		delete(m.jobs, id)
		m.queue = m.queue[:len(m.queue)-1]
		return JobRecord{}, err
	}
	m.cond.Signal()
	return js.rec, nil
}

// Get returns a snapshot of the job record.
func (m *Manager) Get(id string) (JobRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return JobRecord{}, false
	}
	return js.rec, true
}

// List returns snapshots of every job in ID order.
func (m *Manager) List() []JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobRecord, 0, len(m.jobs))
	for _, js := range m.jobs {
		out = append(out, js.rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats reports daemon counters for the health endpoint.
func (m *Manager) Stats() (jobs, queued, running, cached int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, js := range m.jobs {
		switch js.rec.Status {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		}
	}
	return len(m.jobs), queued, running, m.cache.Len()
}

// Done returns a channel closed when the job reaches a terminal status
// (ok=false for unknown jobs).
func (m *Manager) Done(id string) (<-chan struct{}, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return js.done, true
}

// Subscribe returns the job's event backlog plus a channel of live
// events. The channel is closed when the job reaches a terminal status;
// cancel must be called when the subscriber stops listening. Slow
// subscribers lose events rather than stalling the job (the channel is
// buffered and sends are non-blocking).
func (m *Manager) Subscribe(id string) (backlog []flow.JobEvent, live <-chan flow.JobEvent, cancel func(), ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, found := m.jobs[id]
	if !found {
		return nil, nil, nil, false
	}
	backlog = append([]flow.JobEvent(nil), js.events...)
	ch := make(chan flow.JobEvent, 256)
	if js.terminal() {
		close(ch)
		return backlog, ch, func() {}, true
	}
	js.subs[ch] = struct{}{}
	cancel = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, still := js.subs[ch]; still {
			delete(js.subs, ch)
			close(ch)
		}
	}
	return backlog, ch, cancel, true
}

// emit appends an event to the job's log and fans it out to live
// subscribers.
func (m *Manager) emit(id string, ev flow.JobEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return
	}
	if len(js.events) < 4096 {
		js.events = append(js.events, ev)
	}
	for ch := range js.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never stall the job
		}
	}
}

// closeSubs closes every live subscriber channel of a terminal job.
// Caller holds m.mu.
func (js *jobState) closeSubsLocked() {
	for ch := range js.subs {
		delete(js.subs, ch)
		close(ch)
	}
}

// runner is one worker loop: pop the next queued job, run it.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && m.rootCtx.Err() == nil {
			m.cond.Wait()
		}
		if m.rootCtx.Err() != nil {
			m.mu.Unlock()
			return
		}
		id := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		m.runJob(id)
	}
}

// cellsManifestPath is where a table job checkpoints its cells.
func (m *Manager) cellsManifestPath(id string) string {
	if m.opt.StateDir == "" {
		return ""
	}
	return filepath.Join(m.opt.StateDir, id+".cells.json")
}

// openCellsManifest loads a table job's cell manifest (resuming a
// drained run's checkpoints) or creates a fresh one.
func (m *Manager) openCellsManifest(id string, spec flow.JobSpec) (*runmanifest.Manifest, error) {
	path := m.cellsManifestPath(id)
	if path == "" {
		return nil, nil
	}
	fp := spec.TableFingerprint()
	if _, err := os.Stat(path); err == nil {
		mf, err := runmanifest.Load(path)
		if err != nil {
			return nil, err
		}
		if err := mf.Fingerprint().CompatibleWith(fp); err != nil {
			return nil, fmt.Errorf("cell manifest fingerprint mismatch: %w", err)
		}
		return mf, nil
	}
	return runmanifest.New(path, fp), nil
}

// runJob executes one job end to end: mark running, prepare, consult
// the cache (or compute), and record the terminal status.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	js, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	spec := js.rec.Spec
	// A lease never holds more than the pool's total, so clamp the
	// width before Prepare: the cache key must name the width the job
	// runs with.
	spec.SolverWorkers = min(spec.SolverWorkers, m.pool.Total())
	ctx, cancel := context.WithCancel(m.rootCtx)
	js.rec.Status = StatusRunning
	js.cancel = cancel
	perr := m.persistLocked()
	m.mu.Unlock()
	defer cancel()
	if perr != nil {
		m.finishJob(id, nil, CacheNone, fmt.Errorf("persist: %w", perr))
		return
	}
	if m.opt.JobTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, m.opt.JobTimeout)
		defer tcancel()
	}
	m.emit(id, flow.JobEvent{Stage: "status", Message: "running"})

	job, err := flow.NewJob(spec)
	if err != nil {
		m.finishJob(id, nil, CacheNone, err)
		return
	}
	rt := flow.JobRuntime{
		Pool: m.pool,
		Emit: func(ev flow.JobEvent) { m.emit(id, ev) },
	}
	if spec.Kind == flow.JobTable {
		mf, err := m.openCellsManifest(id, spec)
		if err != nil {
			m.finishJob(id, nil, CacheNone, err)
			return
		}
		rt.Manifest = mf
	}
	// Prepare before the cache lookup: the cache key IS the canonical
	// strashed-graph fingerprint, so preparation (load + lock + strash)
	// is the part of the pipeline every job pays and everything after
	// it is what a hit skips.
	if err := job.Prepare(ctx); err != nil {
		m.finishJob(id, nil, CacheNone, err)
		return
	}
	data, outcome, err := m.cache.Do(ctx, job.CacheKey(), func() (json.RawMessage, error) {
		res, err := job.Run(ctx, rt)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
	m.finishJob(id, data, outcome, err)
}

// finishJob records a job's terminal state: done with its result,
// interrupted when the drain cancelled it (so a restart requeues it),
// or failed.
func (m *Manager) finishJob(id string, data json.RawMessage, outcome CacheOutcome, err error) {
	m.mu.Lock()
	js, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	js.cancel = nil
	switch {
	case err == nil:
		js.rec.Status = StatusDone
		js.rec.Result = data
		js.rec.Cache = string(outcome)
	case m.rootCtx.Err() != nil:
		js.rec.Status = StatusInterrupted
		js.rec.Error = "interrupted by daemon drain"
	default:
		js.rec.Status = StatusFailed
		js.rec.Error = err.Error()
	}
	status := js.rec.Status
	cacheNote := ""
	if status == StatusDone && js.rec.Cache != "" {
		cacheNote = " (cache " + js.rec.Cache + ")"
	}
	perr := m.persistLocked()
	m.mu.Unlock()
	m.emit(id, flow.JobEvent{Stage: "status", Message: string(status) + cacheNote})
	m.mu.Lock()
	js.closeSubsLocked()
	close(js.done)
	m.mu.Unlock()
	_ = perr // the record is still served from memory; the restart path re-persists
}

// Drain stops admission, cancels running jobs, and waits up to timeout
// for the runners to checkpoint and exit. In-flight jobs are recorded
// as interrupted and resume (table jobs from their cell manifests) when
// the next daemon starts.
func (m *Manager) Drain(timeout time.Duration) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.rootCancel()
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	select {
	case <-done:
	case <-time.After(timeout):
		return fmt.Errorf("server: drain timed out after %v", timeout)
	}
	// Jobs still queued keep StatusQueued in the journal and are
	// requeued on restart; nothing else to rewrite here.
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.persistLocked()
}
