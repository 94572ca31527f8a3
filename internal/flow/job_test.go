package flow

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/bmarks"
	"repro/internal/layout"
	"repro/internal/sat"
	"repro/internal/sim"
)

func mustJob(t *testing.T, spec JobSpec) *Job {
	t.Helper()
	j, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func runJob(t *testing.T, spec JobSpec, rt JobRuntime) ([]byte, *Job) {
	t.Helper()
	j := mustJob(t, spec)
	res, err := j.Run(context.Background(), rt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data, j
}

func TestJobSpecValidate(t *testing.T) {
	bad := []JobSpec{
		{},
		{Kind: "frobnicate"},
		{Kind: JobVerify},
		{Kind: JobVerify, Bench: "nosuchbench"},
		{Kind: "table", Bench: "b14"},
		{Kind: JobVerify, Bench: "c432", Scale: 2},
		{Kind: JobVerify, Bench: "c432", Scale: -1},
		{Kind: JobVerify, Bench: "c432", KeyBits: -5},
		{Kind: JobVerify, Bench: "c432", KeyBits: 5000},
		{Kind: JobVerify, Bench: "c432", Patterns: sim.MaxPatterns + 1},
		{Kind: JobAttack, Bench: "c432", Patterns: math.MaxInt},
		{Kind: JobVerify, Bench: "c432", Patterns: -1},
		{Kind: JobAttack, Bench: "c432", Patterns: -1},
		{Kind: JobLock, Bench: "c432", SplitLayer: -3},
		{Kind: JobLock, Bench: "c432", SplitLayer: 1},
		{Kind: JobLock, Bench: "c432", SplitLayer: layout.NumLayers},
		{Kind: JobLock, Bench: "c432", SplitLayer: 50},
	}
	for _, spec := range bad {
		if _, err := NewJob(spec); err == nil {
			t.Errorf("NewJob(%+v) accepted an invalid spec", spec)
		}
	}
	good := []JobSpec{
		{Kind: JobVerify, Bench: "c432"},
		{Kind: JobLock, Bench: "c432", SplitLayer: 2},
		{Kind: JobLock, Bench: "c432", SplitLayer: layout.NumLayers - 1},
		{Kind: JobVerify, Bench: "c432", Patterns: sim.MaxPatterns},
	}
	for _, spec := range good {
		if _, err := NewJob(spec); err != nil {
			t.Errorf("NewJob(%+v) rejected a valid spec: %v", spec, err)
		}
	}
}

// TestJobVerifyDeterministic: two separately prepared identical verify
// jobs agree on cache key and — byte for byte — result payload. This is
// the determinism the daemon's cache depends on.
func TestJobVerifyDeterministic(t *testing.T) {
	spec := JobSpec{Kind: JobVerify, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2}
	d1, j1 := runJob(t, spec, JobRuntime{})
	d2, j2 := runJob(t, spec, JobRuntime{})
	if j1.CacheKey() != j2.CacheKey() {
		t.Fatalf("cache keys differ: %q vs %q", j1.CacheKey(), j2.CacheKey())
	}
	if string(d1) != string(d2) {
		t.Fatalf("results differ:\n%s\n%s", d1, d2)
	}
	var res VerifyJobResult
	if err := json.Unmarshal(d1, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("locked c432 reported non-equivalent")
	}
}

// TestJobPoolCapsWidth: a pool caps the job's portfolio at its total.
// This b14 attack recovers a different key with one member than with
// two, so a 2-member spec on a 1-member pool must return the 1-member
// payload and differ from the uncapped run.
func TestJobPoolCapsWidth(t *testing.T) {
	spec := JobSpec{Kind: JobAttack, Bench: "b14", Scale: 0.1, KeyBits: 64, Seed: 3,
		MaxIter: 256, Patterns: 2048, SolverWorkers: 2}
	var events []JobEvent
	capped, _ := runJob(t, spec, JobRuntime{Pool: sat.NewPool(1), Emit: func(e JobEvent) { events = append(events, e) }})
	wide, _ := runJob(t, spec, JobRuntime{})
	narrow := spec
	narrow.SolverWorkers = 1
	single, _ := runJob(t, narrow, JobRuntime{})
	if string(capped) != string(single) {
		t.Fatalf("2-member job on a 1-member pool differs from the 1-member run:\n%s\n%s", capped, single)
	}
	if string(capped) == string(wide) {
		t.Fatalf("1- and 2-member runs agree, so the cap is not observable:\n%s", wide)
	}
	if len(events) == 0 {
		t.Fatal("no progress events emitted")
	}
}

// TestJobLockSmoke: the lock kind drives the full Fig. 3 flow and
// streams stage events.
func TestJobLockSmoke(t *testing.T) {
	var stages []string
	d, _ := runJob(t, JobSpec{Kind: JobLock, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2},
		JobRuntime{Emit: func(e JobEvent) { stages = append(stages, e.Stage) }})
	var res LockJobResult
	if err := json.Unmarshal(d, &res); err != nil {
		t.Fatal(err)
	}
	if res.KeyBits != 16 || res.LockedGates <= res.Gates {
		t.Fatalf("implausible lock result: %+v", res)
	}
	if res.LECStats == nil {
		t.Fatal("lock job skipped LEC on a small design")
	}
	want := map[string]bool{"lock": false, "lec": false, "place": false, "route": false, "split": false}
	for _, s := range stages {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("no %q stage event", s)
		}
	}
}

// TestLockJobMatchesFlowRun: a lock job runs the flow on the design
// Prepare locked, and its payload is byte-identical to the summary of a
// fresh Run that locks the design itself, for both locking schemes.
func TestLockJobMatchesFlowRun(t *testing.T) {
	for _, random := range []bool{false, true} {
		spec := JobSpec{Kind: JobLock, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2, SplitLayer: 6, RandomLock: random}
		got, j := runJob(t, spec, JobRuntime{})
		orig, err := bmarks.Load("c432", 1)
		if err != nil {
			t.Fatal(err)
		}
		art, err := Run(context.Background(), orig, Config{
			KeyBits:     16,
			SplitLayer:  6,
			Seed:        2 + 6*1000,
			UseATPGLock: !random,
		})
		if err != nil {
			t.Fatal(err)
		}
		if (art.LockReport == nil) != random || (j.rep == nil) != random {
			t.Fatalf("random=%v: lock report presence differs from the scheme", random)
		}
		want, err := json.Marshal(&LockJobResult{
			Bench:       "c432",
			Gates:       orig.NumGates(),
			LockedGates: art.Locked.Circuit.NumGates(),
			KeyBits:     len(art.Locked.KeyBits),
			SplitLayer:  6,
			Scheme:      art.Locked.Scheme,
			LECStats:    art.LECStats,
		})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("random=%v: lock job payload differs from flow.Run:\n%s\n%s", random, got, want)
		}
	}
}

// TestJobCacheKey: the cache key of an unprepared job is its normalized
// spec. A spec that spells out every default shares the bare spec's key
// (an omitted solver_workers is one solver), and changing any one field
// changes the key.
func TestJobCacheKey(t *testing.T) {
	bare := JobSpec{Kind: JobAttack, Bench: "c432"}
	key := mustJob(t, bare).CacheKey()
	full := JobSpec{Kind: JobAttack, Bench: "c432", Scale: 0.1, KeyBits: 128, SplitLayer: 4, Seed: 1, SolverWorkers: 1}
	if got := mustJob(t, full).CacheKey(); got != key {
		t.Errorf("spelled-out defaults: key %q, want the bare spec's %q", got, key)
	}

	changes := []func(*JobSpec){
		func(s *JobSpec) { s.Kind = JobVerify },
		func(s *JobSpec) { s.Bench = "c880" },
		func(s *JobSpec) { s.Scale = 0.5 },
		func(s *JobSpec) { s.KeyBits = 64 },
		func(s *JobSpec) { s.SplitLayer = 6 },
		func(s *JobSpec) { s.Seed = 2 },
		func(s *JobSpec) { s.Patterns = 64 },
		func(s *JobSpec) { s.MaxIter = 9 },
		func(s *JobSpec) { s.SolverWorkers = 2 },
		func(s *JobSpec) { s.RandomLock = true },
	}
	seen := map[string]int{key: -1}
	for i, change := range changes {
		s := full
		change(&s)
		got := mustJob(t, s).CacheKey()
		if prev, dup := seen[got]; dup {
			t.Errorf("change %d (%+v) shares key %q with change %d", i, s, got, prev)
		}
		seen[got] = i
	}
}

// TestJobAttackSmoke: the attack kind recovers a working key for a
// small lock (the Sec. II-C oracle-present scenario).
func TestJobAttackSmoke(t *testing.T) {
	d, _ := runJob(t, JobSpec{Kind: JobAttack, Bench: "c432", Scale: 1, KeyBits: 8, Seed: 2, MaxIter: 128, Patterns: 2048}, JobRuntime{})
	var res AttackJobResult
	if err := json.Unmarshal(d, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Success {
		t.Fatalf("attack did not recover a working key: %+v", res)
	}
	if len(res.Key) != 8 {
		t.Fatalf("recovered key %q, want 8 bits", res.Key)
	}
}

// TestJobAttackNotConverged: an attack whose query cap runs out before
// the key is pinned down reports a failed, non-converged result instead
// of erroring on the empty key.
func TestJobAttackNotConverged(t *testing.T) {
	d, _ := runJob(t, JobSpec{Kind: JobAttack, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2, MaxIter: 1, Patterns: 2048}, JobRuntime{})
	var res AttackJobResult
	if err := json.Unmarshal(d, &res); err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Success || res.Key != "" {
		t.Fatalf("attack capped at 1 query reported %+v, want a failed non-converged result", res)
	}
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d, want the cap of 1", res.Iterations)
	}
}

// TestPrepareCancelsLock: cancelling a paper-scale Prepare (b14 ×1.0,
// 128 key bits) while it locks returns context.Canceled well before an
// uncancelled Prepare, which the test times itself, would have
// finished: the ATPG lock observes the context between modules.
func TestPrepareCancelsLock(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale lock")
	}
	spec := JobSpec{Kind: JobLock, Bench: "b14", Scale: 1, KeyBits: 128, Seed: 4}
	start := time.Now()
	if err := mustJob(t, spec).Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(full/10, cancel)
	start = time.Now()
	err := mustJob(t, spec).Prepare(ctx)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Prepare returned %v, want context.Canceled", err)
	}
	if took > full/2 {
		t.Fatalf("cancelled Prepare took %v; uncancelled it takes %v", took, full)
	}
	t.Logf("uncancelled %v, cancelled at %v, returned after %v", full, full/10, took)
}
