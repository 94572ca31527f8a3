package flow

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/faultpoint"
	"repro/internal/runmanifest"
	"repro/internal/sat"
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
		{Kind: JobTable, Benchmarks: []string{"nosuchbench"}},
		{Kind: JobVerify, Bench: "c432", Scale: 2},
	}
	for _, spec := range bad {
		if _, err := NewJob(spec); err == nil {
			t.Errorf("NewJob(%+v) accepted an invalid spec", spec)
		}
	}
	if _, err := NewJob(JobSpec{Kind: JobVerify, Bench: "c432"}); err != nil {
		t.Errorf("minimal verify spec rejected: %v", err)
	}
	if _, err := NewJob(JobSpec{Kind: JobTable}); err != nil {
		t.Errorf("minimal table spec rejected: %v", err)
	}
}

// TestJobVerifyDeterministic: two separately prepared identical verify
// jobs agree on fingerprint, cache key, and — byte for byte — result
// payload. This is the determinism the daemon's cache depends on.
func TestJobVerifyDeterministic(t *testing.T) {
	spec := JobSpec{Kind: JobVerify, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2}
	d1, j1 := runJob(t, spec, JobRuntime{})
	d2, j2 := runJob(t, spec, JobRuntime{})
	if j1.CacheKey() == "" {
		t.Fatal("deterministic verify job has no cache key")
	}
	if j1.CacheKey() != j2.CacheKey() {
		t.Fatalf("cache keys differ: %q vs %q", j1.CacheKey(), j2.CacheKey())
	}
	if j1.Fingerprint() != j2.Fingerprint() {
		t.Fatalf("fingerprints differ: %s vs %s", j1.Fingerprint(), j2.Fingerprint())
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

	// A different seed locks differently: distinct fingerprint and key.
	j3 := mustJob(t, JobSpec{Kind: JobVerify, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 3})
	if err := j3.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j3.Fingerprint() == j1.Fingerprint() {
		t.Fatal("different lock seeds produced the same fingerprint")
	}
}

// TestJobVerifyPooled: a pool-backed verify job leases and releases its
// solver slots and reaches the same verdict.
func TestJobVerifyPooled(t *testing.T) {
	pool := sat.NewPool(2)
	spec := JobSpec{Kind: JobVerify, Bench: "c432", Scale: 1, KeyBits: 16, Seed: 2, SolverWorkers: 2}
	var events []JobEvent
	d, _ := runJob(t, spec, JobRuntime{Pool: pool, Emit: func(e JobEvent) { events = append(events, e) }})
	var res VerifyJobResult
	if err := json.Unmarshal(d, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("pooled verify reported non-equivalent")
	}
	if pool.Free() != 2 {
		t.Fatalf("job leaked pool slots: %d free, want 2", pool.Free())
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

// TestJobTableResumeByteIdentical: a table job resumed from a fully
// checkpointed manifest recomputes nothing and returns a byte-identical
// payload.
func TestJobTableResumeByteIdentical(t *testing.T) {
	defer faultpoint.Reset()
	spec := JobSpec{
		Kind: JobTable, Benchmarks: []string{"b14"}, Scale: 0.02,
		KeyBits: 32, Patterns: 1 << 10, Seed: 4, SplitLayers: []int{4},
	}
	path := filepath.Join(t.TempDir(), "cells.json")
	m := runmanifest.New(path, spec.TableFingerprint())
	cold, _ := runJob(t, spec, JobRuntime{Manifest: m})

	m2, err := runmanifest.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Fingerprint().CompatibleWith(spec.TableFingerprint()); err != nil {
		t.Fatal(err)
	}
	cells := 0
	faultpoint.Set("flow.itc.run", func() { cells++ })
	resumed, _ := runJob(t, spec, JobRuntime{Manifest: m2})
	if cells != 0 {
		t.Fatalf("resumed table job recomputed %d cells", cells)
	}
	if string(cold) != string(resumed) {
		t.Fatalf("resumed table differs from cold run:\n%s\n%s", cold, resumed)
	}
}
