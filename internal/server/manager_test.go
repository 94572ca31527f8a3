package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/flow"
	"repro/internal/runmanifest"
)

func newTestManager(t *testing.T, opt ManagerOptions) *Manager {
	t.Helper()
	if opt.StateDir == "" {
		opt.StateDir = t.TempDir()
	}
	m, err := NewManager(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Drain(30 * time.Second) })
	return m
}

func waitDone(t *testing.T, m *Manager, id string) JobRecord {
	t.Helper()
	done, ok := m.Done(id)
	if !ok {
		t.Fatalf("no such job %s", id)
	}
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	rec, _ := m.Get(id)
	return rec
}

func verifySpec() flow.JobSpec {
	return flow.JobSpec{Kind: flow.JobVerify, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2}
}

// TestManagerCacheHitOnRepeatedJob: submitting the identical job twice
// computes once; the second job is served from the cache with a
// byte-identical payload — and the record says so.
func TestManagerCacheHitOnRepeatedJob(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	r1, err := m.Submit(verifySpec())
	if err != nil {
		t.Fatal(err)
	}
	r1 = waitDone(t, m, r1.ID)
	if r1.Status != StatusDone {
		t.Fatalf("first job %s: %s", r1.Status, r1.Error)
	}
	if r1.Cache != string(CacheMiss) {
		t.Fatalf("first job cache outcome %q, want miss", r1.Cache)
	}
	start := time.Now()
	r2, err := m.Submit(verifySpec())
	if err != nil {
		t.Fatal(err)
	}
	r2 = waitDone(t, m, r2.ID)
	hitTime := time.Since(start)
	if r2.Status != StatusDone {
		t.Fatalf("second job %s: %s", r2.Status, r2.Error)
	}
	if r2.Cache != string(CacheHit) {
		t.Fatalf("second job cache outcome %q, want hit", r2.Cache)
	}
	if string(r1.Result) != string(r2.Result) {
		t.Fatalf("cached result differs from cold run:\n%s\n%s", r1.Result, r2.Result)
	}
	var res flow.VerifyJobResult
	if err := json.Unmarshal(r2.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("cached verify reported non-equivalent")
	}
	// "Measurably faster": the spec is the cache key, so the hit skips
	// Prepare (load + lock) as well as LEC.
	if hitTime > 10*time.Second {
		t.Fatalf("cache hit took %v", hitTime)
	}
}

func lockSpec() flow.JobSpec {
	return flow.JobSpec{Kind: flow.JobLock, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2}
}

func submitWait(t *testing.T, m *Manager, spec flow.JobSpec) JobRecord {
	t.Helper()
	r, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r = waitDone(t, m, r.ID)
	if r.Status != StatusDone {
		t.Fatalf("%s job %s: %s", spec.Kind, r.Status, r.Error)
	}
	return r
}

// TestManagerRepeatSkipsPrepare: a repeated spec is its own cache key,
// so its hit loads and locks nothing. A job on the same design that
// misses the cache prepares inside its computation, and so does a
// repeat whose result was evicted; both payloads match their cold runs.
func TestManagerRepeatSkipsPrepare(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, CacheEntries: 1})
	r1 := submitWait(t, m, lockSpec())
	if r1.Cache != string(CacheMiss) || m.prepared.Load() != 1 {
		t.Fatalf("cold lock job: cache %q after %d prepares, want a miss after 1", r1.Cache, m.prepared.Load())
	}
	r2 := submitWait(t, m, lockSpec())
	if r2.Cache != string(CacheHit) || m.prepared.Load() != 1 {
		t.Fatalf("repeated lock job: cache %q after %d prepares, want a hit after 1", r2.Cache, m.prepared.Load())
	}
	if string(r1.Result) != string(r2.Result) {
		t.Fatalf("hit payload differs from the cold run:\n%s\n%s", r1.Result, r2.Result)
	}

	// Same design, different job: the cache has no result, so the
	// computation prepares.
	rv := submitWait(t, m, verifySpec())
	if rv.Cache != string(CacheMiss) || m.prepared.Load() != 2 {
		t.Fatalf("verify job on the locked design: cache %q after %d prepares, want a miss after 2", rv.Cache, m.prepared.Load())
	}
	// The one-entry cache evicted the lock result.
	r3 := submitWait(t, m, lockSpec())
	if r3.Cache != string(CacheMiss) || m.prepared.Load() != 3 {
		t.Fatalf("evicted lock job: cache %q after %d prepares, want a miss after 3", r3.Cache, m.prepared.Load())
	}
	if string(r1.Result) != string(r3.Result) {
		t.Fatalf("recomputed payload differs from the cold run:\n%s\n%s", r1.Result, r3.Result)
	}
}

// TestManagerCoalescedRepeatPreparesOnce: the same fresh lock spec
// submitted twice back to back to two runners is computed once. The
// second job joins the first's computation (or hits its result) before
// it loads or locks anything, so the design is prepared once and both
// payloads are byte-identical.
func TestManagerCoalescedRepeatPreparesOnce(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 2})
	var ids []string
	for i := 0; i < 2; i++ {
		r, err := m.Submit(lockSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	outcomes := map[string]int{}
	var payloads []string
	for _, id := range ids {
		r := waitDone(t, m, id)
		if r.Status != StatusDone {
			t.Fatalf("lock job %s: %s", r.Status, r.Error)
		}
		outcomes[r.Cache]++
		payloads = append(payloads, string(r.Result))
	}
	if outcomes[string(CacheMiss)] != 1 || outcomes[string(CacheCoalesced)]+outcomes[string(CacheHit)] != 1 {
		t.Fatalf("cache outcomes %v, want one miss and one coalesced or hit", outcomes)
	}
	if payloads[0] != payloads[1] {
		t.Fatalf("repeat payload differs:\n%s\n%s", payloads[0], payloads[1])
	}
	if got := m.prepared.Load(); got != 1 {
		t.Fatalf("%d prepares, want 1", got)
	}
}

// TestManagerSharedPrepareKeyConcurrent: a lock job and a verify job on
// the same design run at once, each preparing its own design (nothing
// shares circuits between jobs), and each payload is byte-identical to
// its solo run. Run under -race.
func TestManagerSharedPrepareKeyConcurrent(t *testing.T) {
	solo := map[flow.JobKind]string{}
	for _, spec := range []flow.JobSpec{lockSpec(), verifySpec()} {
		m := newTestManager(t, ManagerOptions{MaxJobs: 1})
		solo[spec.Kind] = string(submitWait(t, m, spec).Result)
	}

	m := newTestManager(t, ManagerOptions{MaxJobs: 2, SolverSlots: 2})
	var ids []string
	for _, spec := range []flow.JobSpec{lockSpec(), verifySpec()} {
		r, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	for _, id := range ids {
		r := waitDone(t, m, id)
		if r.Status != StatusDone || r.Cache != string(CacheMiss) {
			t.Fatalf("%s job: %s, cache %q: %s", r.Spec.Kind, r.Status, r.Cache, r.Error)
		}
		if string(r.Result) != solo[r.Spec.Kind] {
			t.Fatalf("%s payload differs from its solo run:\n%s\n%s", r.Spec.Kind, r.Result, solo[r.Spec.Kind])
		}
	}
	if got := m.prepared.Load(); got != 2 {
		t.Fatalf("%d prepares, want 2 (one per computed job)", got)
	}
}

// TestManagerPoolCapsWidth: a request wider than the width cap is
// clamped before the cache key is formed, so an 8-member spec on a
// 2-slot manager hits the 2-member result.
func TestManagerPoolCapsWidth(t *testing.T) {
	spec := flow.JobSpec{Kind: flow.JobAttack, Bench: "b14", Scale: 0.1, KeyBits: 64, Seed: 3,
		MaxIter: 256, Patterns: 2048, SolverWorkers: 2}
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, SolverSlots: 2})
	r := submitWait(t, m, spec)
	wide := spec
	wide.SolverWorkers = 8
	rw := submitWait(t, m, wide)
	if rw.Cache != string(CacheHit) || string(rw.Result) != string(r.Result) {
		t.Fatalf("8-member request on a 2-slot manager: cache %q; want a hit on the 2-member payload", rw.Cache)
	}
}

// TestManagerWideJobsOverlap: the width cap admits nothing, so two
// 2-member jobs on a 2-slot manager run at once. A short verify job
// submitted while a paper-scale lock job is past its LEC step finishes
// while the lock job is still running.
func TestManagerWideJobsOverlap(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 2, SolverSlots: 2})
	long, err := m.Submit(flow.JobSpec{Kind: flow.JobLock, Bench: "b14", Scale: 1, KeyBits: 128, Seed: 4, SolverWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	backlog, live, cancel, _ := m.Subscribe(long.ID)
	defer cancel()
	pastLEC := false
	for _, ev := range backlog {
		pastLEC = pastLEC || ev.Stage == "lec"
	}
	for !pastLEC {
		ev, ok := <-live
		if !ok {
			t.Fatal("lock job ended before its lec event")
		}
		pastLEC = ev.Stage == "lec"
	}
	short := verifySpec()
	short.SolverWorkers = 2
	if r := submitWait(t, m, short); r.Cache != string(CacheMiss) {
		t.Fatalf("verify job cache %q, want miss", r.Cache)
	}
	if rec, _ := m.Get(long.ID); rec.Status != StatusRunning {
		t.Fatalf("lock job %s: long job done before the short one finished", rec.Status)
	}
	if rec := waitDone(t, m, long.ID); rec.Status != StatusDone {
		t.Fatalf("lock job %s: %s", rec.Status, rec.Error)
	}
}

// parkJobRuns makes every job that misses the cache wait at the
// server.job.run site, before it loads or locks, until release is
// called. parked receives once per job that reaches the site. Call it
// after newTestManager, so the release runs before the manager drains.
func parkJobRuns(t *testing.T) (parked <-chan struct{}, release func()) {
	t.Helper()
	hits := make(chan struct{}, 16)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	faultpoint.Set(fpJobRun, func() {
		hits <- struct{}{}
		<-gate
	})
	t.Cleanup(func() {
		release()
		faultpoint.Reset()
	})
	return hits, release
}

// TestManagerAdmission: with one runner busy and the queue at its
// limit, Submit rejects with ErrQueueFull instead of accepting
// unbounded work.
func TestManagerAdmission(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, QueueLimit: 1})
	parked, release := parkJobRuns(t)
	b, err := m.Submit(verifySpec())
	if err != nil {
		t.Fatal(err)
	}
	// The single runner is now wedged: the verify job is parked.
	<-parked

	q, err := m.Submit(verifySpec())
	if err != nil {
		t.Fatalf("queueing submit failed: %v", err)
	}
	if _, err := m.Submit(verifySpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit submit returned %v, want ErrQueueFull", err)
	}
	_, queued, running, _ := m.Stats()
	if queued != 1 || running != 1 {
		t.Fatalf("stats queued=%d running=%d, want 1/1", queued, running)
	}
	release()
	if rec := waitDone(t, m, b.ID); rec.Status != StatusDone {
		t.Fatalf("blocker finished %s: %s", rec.Status, rec.Error)
	}
	if rec := waitDone(t, m, q.ID); rec.Status != StatusDone {
		t.Fatalf("queued job finished %s: %s", rec.Status, rec.Error)
	}
}

// TestManagerDrainResumeByteIdentical is the daemon's crash-safety
// story end to end: a lock job interrupted by a drain is recorded as
// interrupted, a restarted manager requeues it automatically, and the
// final payload is byte-identical to an uninterrupted control run. The
// restarted manager also migrates a single-file jobs.json journal as
// older daemons wrote it, holding table-job records: a finished one
// keeps its stored result, an unfinished one is requeued and fails as
// an unknown kind, and the daemon keeps serving.
func TestManagerDrainResumeByteIdentical(t *testing.T) {
	spec := lockSpec()

	// Control: uninterrupted run.
	ctl := newTestManager(t, ManagerOptions{MaxJobs: 1})
	cr := submitWait(t, ctl, spec)

	// Interrupted run: drain while the job is parked before its lock
	// step, and let it go once the drain has begun.
	state := t.TempDir()
	m1, err := NewManager(ManagerOptions{StateDir: state, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	parked, release := parkJobRuns(t)
	ir, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	drained := make(chan error, 1)
	go func() { drained <- m1.Drain(60 * time.Second) }()
	for !m1.Draining() {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	rec, _ := m1.Get(ir.ID)
	if rec.Status != StatusInterrupted || rec.Result != nil {
		t.Fatalf("drained job status %s (%s), result %s; want interrupted with no result", rec.Status, rec.Error, rec.Result)
	}

	// Table-job records in the single-file journal of an older daemon.
	oldPath := filepath.Join(state, "jobs.json")
	journal := runmanifest.New(oldPath, runmanifest.Fingerprint{Experiment: "splitlockd-jobs"})
	tableSpec := json.RawMessage(`{"kind":"table","benchmarks":["b14"],"scale":0.02,"keybits":32,"split_layers":[4]}`)
	oldResult := json.RawMessage(`{"rows":[{"benchmark":"b14","cells":{}}]}`)
	for id, old := range map[string]map[string]any{
		"job-000002": {"id": "job-000002", "spec": tableSpec, "status": "done", "result": oldResult},
		"job-000003": {"id": "job-000003", "spec": tableSpec, "status": "interrupted", "error": "interrupted by daemon drain"},
	} {
		if err := journal.Put(id, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Flush(); err != nil {
		t.Fatal(err)
	}

	// Restart: the lock job is requeued and runs to the same payload.
	m2 := newTestManager(t, ManagerOptions{StateDir: state, MaxJobs: 1})
	rr := waitDone(t, m2, ir.ID)
	if rr.Status != StatusDone {
		t.Fatalf("requeued job %s: %s", rr.Status, rr.Error)
	}
	if string(rr.Result) != string(cr.Result) {
		t.Fatalf("requeued result differs from uninterrupted control:\n%s\n%s", rr.Result, cr.Result)
	}
	done, _ := m2.Get("job-000002")
	var stored bytes.Buffer
	if err := json.Compact(&stored, done.Result); err != nil || done.Status != StatusDone || stored.String() != string(oldResult) {
		t.Fatalf("finished table record: status %s, result %s; want its stored result", done.Status, done.Result)
	}
	if old := waitDone(t, m2, "job-000003"); old.Status != StatusFailed || !strings.Contains(old.Error, `unknown job kind "table"`) {
		t.Fatalf("unfinished table record: status %s, error %q; want failed as an unknown kind", old.Status, old.Error)
	}
	if r := submitWait(t, m2, verifySpec()); r.ID != "job-000004" {
		t.Fatalf("new job after the old records got ID %s, want job-000004", r.ID)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("old journal still present after migration: %v", err)
	}
	for _, id := range []string{"job-000002", "job-000003"} {
		if _, err := os.Stat(filepath.Join(state, "jobs", id+".json")); err != nil {
			t.Fatalf("migrated record %s: %v", id, err)
		}
	}
}

// TestJournalWritesOnlyChangedJob: a state change replaces only the
// changed job's journal file, so the cost of journaling a job does not
// grow with the daemon's history; a restarted manager serves every
// record unchanged.
func TestJournalWritesOnlyChangedJob(t *testing.T) {
	const k = 3
	state := t.TempDir()
	m1, err := NewManager(ManagerOptions{StateDir: state, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Drain(30 * time.Second)
	jobFile := func(i int) string {
		return filepath.Join(state, "jobs", fmt.Sprintf("job-%06d.json", i))
	}
	var before []os.FileInfo
	for i := 1; i <= k; i++ {
		submitWait(t, m1, verifySpec())
		fi, err := os.Stat(jobFile(i))
		if err != nil {
			t.Fatalf("job %d has no journal file: %v", i, err)
		}
		before = append(before, fi)
	}
	submitWait(t, m1, verifySpec())
	for i, fi := range before {
		now, err := os.Stat(jobFile(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(fi, now) {
			t.Fatalf("running job %d replaced job %d's journal file", k+1, i+1)
		}
	}
	want := m1.List()
	if len(want) != k+1 {
		t.Fatalf("first manager holds %d records, want %d", len(want), k+1)
	}
	if err := m1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, ManagerOptions{StateDir: state, MaxJobs: 1})
	if got := m2.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted manager serves\n%+v\nwant\n%+v", got, want)
	}
}

// TestManagerSubmitRejectsBadSpec: validation happens at admission, not
// at run time.
func TestManagerSubmitRejectsBadSpec(t *testing.T) {
	m := newTestManager(t, ManagerOptions{})
	if _, err := m.Submit(flow.JobSpec{Kind: "frobnicate"}); err == nil {
		t.Fatal("invalid spec admitted")
	}
	if _, err := m.Submit(flow.JobSpec{Kind: flow.JobVerify, Bench: "nosuchbench"}); err == nil {
		t.Fatal("unknown benchmark admitted")
	}
	if jobs, _, _, _ := m.Stats(); jobs != 0 {
		t.Fatalf("rejected specs left %d job records", jobs)
	}
}

// TestManagerEvents: subscribers get the backlog plus live events, and
// the stream closes at the terminal status.
func TestManagerEvents(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	r, err := m.Submit(verifySpec())
	if err != nil {
		t.Fatal(err)
	}
	backlog, live, cancel, ok := m.Subscribe(r.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer cancel()
	var events []flow.JobEvent
	events = append(events, backlog...)
	for ev := range live {
		events = append(events, ev)
	}
	rec := waitDone(t, m, r.ID)
	if rec.Status != StatusDone {
		t.Fatalf("job %s: %s", rec.Status, rec.Error)
	}
	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	sawRunning := false
	for _, ev := range events {
		if ev.Stage == "status" && ev.Message == "running" {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Fatalf("no running status event in %+v", events)
	}
	// Subscribing after the terminal status yields the backlog and an
	// already-closed channel.
	backlog2, live2, cancel2, ok := m.Subscribe(r.ID)
	if !ok {
		t.Fatal("post-terminal subscribe failed")
	}
	defer cancel2()
	if len(backlog2) < len(events) {
		t.Fatalf("post-terminal backlog has %d events, live saw %d", len(backlog2), len(events))
	}
	if _, open := <-live2; open {
		t.Fatal("post-terminal live channel not closed")
	}
}

// TestManagerEvictsOldFinishedJobs runs more jobs than retainedJobs:
// the daemon keeps only the newest finished records, in memory and in
// the journal, a repeat of an evicted job's spec is still a cache hit,
// and a restarted daemon serves the retained records byte for byte.
func TestManagerEvictsOldFinishedJobs(t *testing.T) {
	state := t.TempDir()
	m1, err := NewManager(ManagerOptions{StateDir: state, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m1.Drain(30 * time.Second)
	first := submitWait(t, m1, lockSpec())
	for i := 0; i < retainedJobs+8; i++ {
		submitWait(t, m1, verifySpec())
	}
	if _, ok := m1.Get(first.ID); ok {
		t.Fatalf("job %s survived %d newer finished jobs", first.ID, retainedJobs+8)
	}
	again := submitWait(t, m1, lockSpec())
	if again.Cache != string(CacheHit) || !bytes.Equal(again.Result, first.Result) {
		t.Fatalf("repeat of an evicted spec: cache %q, same payload %v", again.Cache, bytes.Equal(again.Result, first.Result))
	}
	recs := m1.List()
	if len(recs) != retainedJobs || recs[len(recs)-1].ID != again.ID {
		t.Fatalf("daemon holds %d records ending %s, want the newest %d ending %s", len(recs), recs[len(recs)-1].ID, retainedJobs, again.ID)
	}
	files, err := filepath.Glob(filepath.Join(state, "jobs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != retainedJobs {
		t.Fatalf("journal holds %d files, want %d", len(files), retainedJobs)
	}
	want, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A journal written before records were evicted holds older ones
	// too: the restarted daemon evicts them on load.
	old, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, "jobs", first.ID+".json"), old, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, ManagerOptions{StateDir: state, MaxJobs: 1})
	if _, err := os.Stat(filepath.Join(state, "jobs", first.ID+".json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("restart kept the journal file of evicted job %s (stat: %v)", first.ID, err)
	}
	got, err := json.Marshal(m2.List())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restarted daemon serves %d bytes of records, want the %d retained ones", len(got), len(want))
	}
}
