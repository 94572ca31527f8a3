package server

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/flow"
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
	// "Measurably faster": the hit still pays for Prepare (load + lock +
	// strash) but skips LEC; it must land well under a second.
	if hitTime > 10*time.Second {
		t.Fatalf("cache hit took %v", hitTime)
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

// TestManagerSimWidthNeutral: sim_width is a pure speed knob — results
// are bit-identical at every width, so it is deliberately excluded from
// the cache key. A job resubmitted at a different width must hit the
// cache with a byte-identical payload, and invalid widths are rejected
// at admission.
func TestManagerSimWidthNeutral(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	s1 := verifySpec()
	s1.SimWidth = 1
	r1, err := m.Submit(s1)
	if err != nil {
		t.Fatal(err)
	}
	r1 = waitDone(t, m, r1.ID)
	if r1.Status != StatusDone {
		t.Fatalf("width-1 job %s: %s", r1.Status, r1.Error)
	}
	s8 := verifySpec()
	s8.SimWidth = 8
	r8, err := m.Submit(s8)
	if err != nil {
		t.Fatal(err)
	}
	r8 = waitDone(t, m, r8.ID)
	if r8.Status != StatusDone {
		t.Fatalf("width-8 job %s: %s", r8.Status, r8.Error)
	}
	if r8.Cache != string(CacheHit) {
		t.Fatalf("width-8 resubmit cache outcome %q, want hit (sim_width must not enter the cache key)", r8.Cache)
	}
	if string(r1.Result) != string(r8.Result) {
		t.Fatalf("results differ across sim_width:\n%s\n%s", r1.Result, r8.Result)
	}
	bad := verifySpec()
	bad.SimWidth = 3
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("expected Submit to reject sim_width 3")
	}
}

// TestManagerAdmission: with one runner busy and the queue at its
// limit, Submit rejects with ErrQueueFull instead of accepting
// unbounded work.
func TestManagerAdmission(t *testing.T) {
	defer faultpoint.Reset()
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, QueueLimit: 1})
	reached := make(chan struct{})
	proceed := make(chan struct{})
	faultpoint.Set("flow.itc.run", func() {
		close(reached)
		<-proceed
	})
	blocker := flow.JobSpec{
		Kind: flow.JobTable, Benchmarks: []string{"b14"}, Scale: 0.02,
		KeyBits: 32, Patterns: 1 << 10, Seed: 4, SplitLayers: []int{4}, NoParallel: true,
	}
	b, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-reached // the single runner is now wedged inside the table job

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
	close(proceed)
	if rec := waitDone(t, m, b.ID); rec.Status != StatusDone {
		t.Fatalf("blocker finished %s: %s", rec.Status, rec.Error)
	}
	if rec := waitDone(t, m, q.ID); rec.Status != StatusDone {
		t.Fatalf("queued job finished %s: %s", rec.Status, rec.Error)
	}
}

// TestManagerDrainResumeByteIdentical is the tentpole's crash-safety
// story end to end: a table job interrupted by a drain checkpoints its
// finished cells, a restarted manager requeues it automatically,
// recomputes only the unfinished cells, and the final payload is
// byte-identical to an uninterrupted control run.
func TestManagerDrainResumeByteIdentical(t *testing.T) {
	defer faultpoint.Reset()
	spec := flow.JobSpec{
		Kind: flow.JobTable, Benchmarks: []string{"b14"}, Scale: 0.02,
		KeyBits: 32, Patterns: 1 << 10, Seed: 4, SplitLayers: []int{4, 6}, NoParallel: true,
	}

	// Control: uninterrupted run.
	ctl := newTestManager(t, ManagerOptions{MaxJobs: 1})
	cr, err := ctl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cr = waitDone(t, ctl, cr.ID)
	if cr.Status != StatusDone {
		t.Fatalf("control job %s: %s", cr.Status, cr.Error)
	}
	if cr.Cache != "" {
		t.Fatalf("table job reported cache outcome %q, want uncacheable", cr.Cache)
	}

	// Interrupted run: drain after the first cell checkpoints.
	state := t.TempDir()
	m1, err := NewManager(ManagerOptions{StateDir: state, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	faultpoint.Set("flow.itc.cell.done", faultpoint.After(1, func() {
		close(reached)
		<-m1.rootCtx.Done() // hold the job until the drain's cancel lands
	}))
	ir, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	if err := m1.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	faultpoint.Reset()
	rec, _ := m1.Get(ir.ID)
	if rec.Status != StatusInterrupted {
		t.Fatalf("drained job status %s (%s), want interrupted", rec.Status, rec.Error)
	}
	if _, err := os.Stat(filepath.Join(state, ir.ID+".cells.json")); err != nil {
		t.Fatalf("no cell checkpoint written: %v", err)
	}

	// Restart: the job is requeued and resumed from its checkpoints.
	cells := 0
	faultpoint.Set("flow.itc.run", func() { cells++ })
	m2, err := NewManager(ManagerOptions{StateDir: state, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m2.Drain(30 * time.Second) })
	rr := waitDone(t, m2, ir.ID)
	if rr.Status != StatusDone {
		t.Fatalf("resumed job %s: %s", rr.Status, rr.Error)
	}
	if cells != 1 {
		t.Fatalf("resumed run recomputed %d cells, want 1 (only the interrupted M6)", cells)
	}
	if string(rr.Result) != string(cr.Result) {
		t.Fatalf("resumed result differs from uninterrupted control:\n%s\n%s", rr.Result, cr.Result)
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
