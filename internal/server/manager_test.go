package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aig"
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
	// "Measurably faster": the fingerprint memo supplies the cache key,
	// so the hit skips Prepare (load + lock + strash) as well as LEC.
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

// TestManagerRepeatSkipsPrepare: a repeated spec forms its cache key
// from the fingerprint memo, so its hit loads and locks nothing. A job
// that shares the prepare key but misses the cache prepares inside its
// computation, and so does a repeat whose result was evicted; both
// payloads match their cold runs.
func TestManagerRepeatSkipsPrepare(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, CacheEntries: 1})
	r1 := submitWait(t, m, lockSpec())
	if r1.Cache != string(CacheMiss) || m.prepares.Load() != 1 {
		t.Fatalf("cold lock job: cache %q after %d prepares, want a miss after 1", r1.Cache, m.prepares.Load())
	}
	r2 := submitWait(t, m, lockSpec())
	if r2.Cache != string(CacheHit) || m.prepares.Load() != 1 {
		t.Fatalf("repeated lock job: cache %q after %d prepares, want a hit after 1", r2.Cache, m.prepares.Load())
	}
	if string(r1.Result) != string(r2.Result) {
		t.Fatalf("hit payload differs from the cold run:\n%s\n%s", r1.Result, r2.Result)
	}

	// Same design, different job: the memo names the fingerprint, the
	// cache has no result, so the computation prepares.
	rv := submitWait(t, m, verifySpec())
	if rv.Cache != string(CacheMiss) || m.prepares.Load() != 2 {
		t.Fatalf("verify job on the locked design: cache %q after %d prepares, want a miss after 2", rv.Cache, m.prepares.Load())
	}
	// The one-entry cache evicted the lock result; the memo still
	// names its fingerprint.
	r3 := submitWait(t, m, lockSpec())
	if r3.Cache != string(CacheMiss) || m.prepares.Load() != 3 {
		t.Fatalf("evicted lock job: cache %q after %d prepares, want a miss after 3", r3.Cache, m.prepares.Load())
	}
	if string(r1.Result) != string(r3.Result) {
		t.Fatalf("recomputed payload differs from the cold run:\n%s\n%s", r1.Result, r3.Result)
	}
}

// TestFPMemoBound: more distinct specs than the memo's bound keep it at
// its bound, dropping the oldest first.
func TestFPMemoBound(t *testing.T) {
	memo := newFPMemo(fpMemoEntries)
	var keys []string
	for i := 0; i < fpMemoEntries+50; i++ {
		job, err := flow.NewJob(flow.JobSpec{Kind: flow.JobVerify, Bench: "c432", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, job.PrepareKey())
		memo.put(keys[i], aig.Fingerprint{uint64(i + 1), 1})
		memo.put(keys[i], aig.Fingerprint{7, 7}) // a repeat neither grows nor overwrites
	}
	if got := len(memo.fps); got != fpMemoEntries || len(memo.order) != fpMemoEntries {
		t.Fatalf("memo holds %d entries, want its bound %d", got, fpMemoEntries)
	}
	if _, ok := memo.get(keys[49]); ok {
		t.Fatal("the oldest entries were not evicted")
	}
	last := len(keys) - 1
	if fp, ok := memo.get(keys[last]); !ok || fp != (aig.Fingerprint{uint64(last + 1), 1}) {
		t.Fatalf("newest entry: %v, %v", fp, ok)
	}
}

// TestManagerSharedPrepareKeyConcurrent: a lock job and a verify job
// that share a prepare key run at once, each preparing its own design
// (the memo holds fingerprints, never circuits), and each payload is
// byte-identical to its solo run. Run under -race.
func TestManagerSharedPrepareKeyConcurrent(t *testing.T) {
	solo := map[flow.JobKind]string{}
	for _, spec := range []flow.JobSpec{lockSpec(), verifySpec()} {
		m := newTestManager(t, ManagerOptions{MaxJobs: 1})
		solo[spec.Kind] = string(submitWait(t, m, spec).Result)
	}

	m := newTestManager(t, ManagerOptions{MaxJobs: 2, SolverSlots: 2})
	// A verify job at another depth puts the design's fingerprint in
	// the memo, so both jobs below prepare inside their computations.
	warm := verifySpec()
	warm.Patterns = 64
	submitWait(t, m, warm)
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
	if got := m.prepares.Load(); got != 3 {
		t.Fatalf("%d prepares, want 3 (one per computed job)", got)
	}
}

// TestManagerPoolFullWidth: a job never computes on a partial pool
// grant. With one of two solver slots held, a 2-member attack job waits
// for both and then returns the payload of an uncontended run (this b14
// attack recovers a different key with 1 member, so a narrow grant
// would show). A request wider than the pool is clamped before the
// cache key is formed, so it hits the 2-member result.
func TestManagerPoolFullWidth(t *testing.T) {
	spec := flow.JobSpec{Kind: flow.JobAttack, Bench: "b14", Scale: 0.1, KeyBits: 64, Seed: 3,
		MaxIter: 256, Patterns: 2048, SolverWorkers: 2}
	ctrl := newTestManager(t, ManagerOptions{MaxJobs: 1, SolverSlots: 2})
	rc, err := ctrl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rc = waitDone(t, ctrl, rc.ID); rc.Status != StatusDone {
		t.Fatalf("uncontended job %s: %s", rc.Status, rc.Error)
	}

	m := newTestManager(t, ManagerOptions{MaxJobs: 1, SolverSlots: 2})
	hold, err := m.pool.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := m.Done(r.ID)
	select {
	case <-done:
		t.Fatal("job finished while only one of its two solver slots was free")
	case <-time.After(time.Second):
	}
	hold.Release()
	if r = waitDone(t, m, r.ID); r.Status != StatusDone {
		t.Fatalf("contended job %s: %s", r.Status, r.Error)
	}
	if string(r.Result) != string(rc.Result) {
		t.Fatalf("contended payload differs from the uncontended run:\n%s\n%s", r.Result, rc.Result)
	}

	wide := spec
	wide.SolverWorkers = 8
	rw, err := m.Submit(wide)
	if err != nil {
		t.Fatal(err)
	}
	rw = waitDone(t, m, rw.ID)
	if rw.Status != StatusDone || rw.Cache != string(CacheHit) || string(rw.Result) != string(rc.Result) {
		t.Fatalf("8-member request on a 2-slot pool: status %s, cache %q; want a hit on the 2-member payload", rw.Status, rw.Cache)
	}
}

// holdSolverPool takes every slot of m's solver pool, so any job that
// reaches its solving phase waits there until the returned release.
func holdSolverPool(t *testing.T, m *Manager) func() {
	t.Helper()
	hold, err := m.pool.Acquire(context.Background(), m.pool.Total())
	if err != nil {
		t.Fatal(err)
	}
	return hold.Release
}

// waitPrepared waits until a job with spec's prepare key has recorded
// its fingerprint in m's memo: it has prepared and moved on to its
// solving phase.
func waitPrepared(t *testing.T, m *Manager, spec flow.JobSpec) {
	t.Helper()
	job, err := flow.NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		if _, ok := m.memo.get(job.PrepareKey()); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s job never finished preparing", spec.Kind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManagerAdmission: with one runner busy and the queue at its
// limit, Submit rejects with ErrQueueFull instead of accepting
// unbounded work.
func TestManagerAdmission(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, QueueLimit: 1, SolverSlots: 1})
	release := holdSolverPool(t, m)
	b, err := m.Submit(verifySpec())
	if err != nil {
		t.Fatal(err)
	}
	// The single runner is now wedged: the verify job waits for the
	// solver slot the test holds.
	waitPrepared(t, m, verifySpec())

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

	// Interrupted run: drain while the job waits for its solver slot.
	state := t.TempDir()
	m1, err := NewManager(ManagerOptions{StateDir: state, MaxJobs: 1, SolverSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := holdSolverPool(t, m1)
	ir, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPrepared(t, m1, spec)
	if err := m1.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	release()
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
