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
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
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

// fpJobRun fires where a job that missed the cache starts computing.
var fpJobRun = faultpoint.Describe("server.job.run",
	"server: a job that missed the cache, before it loads and locks its design; stall= parks a runner")

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
	// Cache records how the result was obtained: "miss", "hit" or
	// "coalesced"; it is empty on a job that did not finish.
	Cache string `json:"cache,omitempty"`
}

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// StateDir holds the jobs journal, one file per job under jobs/;
	// it is created if missing. Empty runs the manager in memory (no
	// requeue on restart).
	StateDir string
	// MaxJobs bounds concurrently running jobs, and separately
	// concurrently running dispatched table cells (the POST /v1/cells
	// remote-worker leg; cells beyond it queue, heartbeating while they
	// wait). Default 2.
	MaxJobs int
	// QueueLimit bounds jobs waiting for a runner; Submit beyond it
	// fails with ErrQueueFull (default 64). Restart requeue ignores the
	// limit — previously admitted jobs are never dropped.
	QueueLimit int
	// SolverSlots caps the portfolio width of every job (0 =
	// GOMAXPROCS). Wider requests are clamped, never queued. A cell
	// always runs one solver.
	SolverSlots int
	// CacheEntries bounds the result cache (0 = 128).
	CacheEntries int
	// JobTimeout is the per-job deadline (0 = none). A job that blows
	// it fails; drain interruption is not a timeout.
	JobTimeout time.Duration
}

func (o ManagerOptions) withDefaults() ManagerOptions {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 2
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 64
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
	pool  *sat.Pool // the portfolio-width cap
	cache *Cache
	// prepared counts jobs that finished Job.Prepare, so tests can tell
	// a repeated spec that skipped preparation from one that paid for it.
	prepared atomic.Int64

	mu    sync.Mutex
	cond  *sync.Cond
	jobs  map[string]*jobState
	queue []string // job IDs awaiting a runner, FIFO
	// finished lists the done and failed jobs, oldest first; beyond
	// retainedJobs the oldest are evicted (see evictFinished).
	finished []string
	seq      int
	draining bool
	// journal is the directory holding one <id>.json record per job
	// ("" in memory). A job's file is replaced only when its record
	// changes, so a state change costs one small write however many
	// jobs the daemon has seen.
	journal string
	cellSem chan struct{} // counting semaphore for dispatched cells (MaxJobs)

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
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
		cellSem: make(chan struct{}, opt.MaxJobs),
	}
	m.cond = sync.NewCond(&m.mu)
	m.rootCtx, m.rootCancel = context.WithCancel(context.Background())
	if opt.StateDir != "" {
		m.journal = filepath.Join(opt.StateDir, "jobs")
		if err := os.MkdirAll(m.journal, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
		if err := m.migrateJournal(filepath.Join(opt.StateDir, "jobs.json")); err != nil {
			return nil, err
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

// migrateJournal converts a single-file jobs.json journal, as older
// daemons wrote it, into per-job files and removes it. The old file is
// a run manifest whose cells map job IDs to records; the temp file of
// a flush a crash cut short is removed with it.
func (m *Manager) migrateJournal(path string) error {
	os.Remove(path + ".tmp")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	var old struct {
		Cells map[string]JobRecord `json:"cells"`
	}
	if err == nil {
		err = json.Unmarshal(data, &old)
	}
	if err != nil {
		return fmt.Errorf("server: jobs journal %s: %w", path, err)
	}
	for _, rec := range old.Cells {
		if err := m.writeRecord(rec); err != nil {
			return err
		}
	}
	return os.Remove(path)
}

// restore rebuilds the in-memory job table from the journal and
// requeues unfinished jobs in ID order, so a restarted daemon picks up
// exactly where the drained one stopped. It removes the temp files of
// writes a crash cut short (the record they would have replaced is
// still in place) and rewrites only the records it requeues.
func (m *Manager) restore() error {
	entries, err := os.ReadDir(m.journal) // sorted; IDs are zero-padded
	if err != nil {
		return fmt.Errorf("server: jobs journal: %w", err)
	}
	for _, e := range entries {
		path := filepath.Join(m.journal, e.Name())
		if filepath.Ext(path) == ".tmp" {
			os.Remove(path)
			continue
		}
		if filepath.Ext(path) != ".json" {
			continue
		}
		var rec JobRecord
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rec)
		}
		if err != nil {
			return fmt.Errorf("server: jobs journal entry %s: %w", path, err)
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
			if err := m.writeRecord(js.rec); err != nil {
				return err
			}
			m.queue = append(m.queue, rec.ID)
		default:
			close(js.done)
			m.finished = append(m.finished, rec.ID)
		}
		m.jobs[rec.ID] = js
	}
	m.evictFinished()
	return nil
}

// writeRecord atomically replaces the journal file of one job. Callers
// hold m.mu (or are in single-threaded setup), which orders the writes
// of one job's successive states.
func (m *Manager) writeRecord(rec JobRecord) error {
	if m.journal == "" {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: job %s: %w", rec.ID, err)
	}
	return runmanifest.WriteFile(filepath.Join(m.journal, rec.ID+".json"), data)
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
	if err := m.writeRecord(js.rec); err != nil {
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

// runJob executes one job end to end: mark running, consult the cache
// (or prepare and compute), and record the terminal status.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	js, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	spec := js.rec.Spec
	// A job never builds more members than the cap, so clamp the width
	// before the cache key is formed: the key must name the width the
	// job runs with.
	spec.SolverWorkers = min(spec.SolverWorkers, m.pool.Total())
	ctx, cancel := context.WithCancel(m.rootCtx)
	js.rec.Status = StatusRunning
	js.cancel = cancel
	perr := m.writeRecord(js.rec)
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
	// The key is the spec itself, so a repeated spec is served before
	// any load or lock, and an identical job already computing is
	// joined before it locks.
	data, outcome, err := m.cache.Do(ctx, job.CacheKey(), func() (json.RawMessage, error) {
		faultpoint.Hit(fpJobRun)
		if err := job.Prepare(ctx); err != nil {
			return nil, err
		}
		m.prepared.Add(1)
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
	// A failed write leaves the job's previous record ("running") on
	// disk, so a restart requeues it; this daemon still serves the
	// finished record from memory.
	_ = m.writeRecord(js.rec)
	if status != StatusInterrupted {
		m.finished = append(m.finished, id)
		m.evictFinished()
	}
	m.mu.Unlock()
	m.emit(id, flow.JobEvent{Stage: "status", Message: string(status) + cacheNote})
	m.mu.Lock()
	js.closeSubsLocked()
	close(js.done)
	m.mu.Unlock()
}

// Drain stops admission, cancels running jobs, and waits up to timeout
// for the runners to exit. In-flight jobs are recorded as interrupted
// and are requeued, to run again from the start, when the next daemon
// starts.
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
		// Every job's last state is already journaled: queued ones as
		// queued, cancelled ones as interrupted.
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("server: drain timed out after %v", timeout)
	}
}

// retainedJobs bounds the finished (done or failed) job records the
// daemon keeps, in memory and in the journal. A record is about half a
// kilobyte, so GET /v1/jobs stays near 150 kB. Eviction drops only the
// record: results live in the cache, keyed by job spec, so a repeat of
// an evicted job's spec is still a cache hit.
const retainedJobs = 256

// evictFinished drops the oldest finished jobs beyond retainedJobs,
// with their journal files. A file that cannot be removed is reloaded
// by the next daemon, which evicts it again. Caller holds m.mu (or is
// in single-threaded setup).
func (m *Manager) evictFinished() {
	for len(m.finished) > retainedJobs {
		id := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, id)
		if m.journal != "" {
			_ = os.Remove(filepath.Join(m.journal, id+".json"))
		}
	}
}
