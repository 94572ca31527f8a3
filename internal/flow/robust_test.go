package flow

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/runmanifest"
)

// robustITCOpts is the smallest configuration that exercises the full
// benchmark×layer sweep quickly.
func robustITCOpts() ITCOptions {
	return ITCOptions{
		Benchmarks: []string{"b14"},
		Scale:      0.03,
		KeyBits:    48,
		Patterns:   1 << 10,
		Seed:       4,
	}
}

// TestRunITCPanicIsolation: a panic inside one benchmark×layer job must
// become that cell's error — carrying the panic message — while sibling
// cells complete normally, and the joined error must name the cell.
func TestRunITCPanicIsolation(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Set("flow.itc.run@b14/M4", func() { panic("injected fault") })

	rows, err := RunITC(context.Background(), robustITCOpts())
	if err == nil {
		t.Fatal("panicking job did not surface an error")
	}
	if !strings.Contains(err.Error(), "b14/M4") {
		t.Errorf("joined error does not name the failed cell: %v", err)
	}
	if !strings.Contains(err.Error(), "injected fault") {
		t.Errorf("joined error lost the panic message: %v", err)
	}
	cellErr := rows[0].Errors[4]
	if cellErr == nil || !strings.Contains(cellErr.Error(), "panicked") {
		t.Errorf("cell error does not record the panic: %v", cellErr)
	}
	if _, ok := rows[0].Results[6]; !ok {
		t.Error("sibling cell b14/M6 was poisoned by the panic")
	}
	if _, ok := rows[0].Results[4]; ok {
		t.Error("panicked cell still produced a result")
	}
}

// TestRunITCJobTimeout: a job exceeding JobTimeout must be recorded on
// its cell — with an error naming the deadline — while the sibling
// cell finishes untouched. The stalled job is cancelled at the next
// context check, not left running.
func TestRunITCJobTimeout(t *testing.T) {
	defer faultpoint.Reset()
	// The deadline applies to every job, so it must be generous enough
	// for the un-stalled sibling to finish under the host's current
	// load (the race detector and parallel test packages slow it
	// several-fold). Time the sibling alone, allow it three times that
	// plus a second, and stall the other cell a second past the
	// deadline.
	solo := robustITCOpts()
	solo.SplitLayers = []int{6}
	start := time.Now()
	if _, err := RunITC(context.Background(), solo); err != nil {
		t.Fatal(err)
	}
	timeout := 3*time.Since(start) + time.Second
	var runs atomic.Int32
	faultpoint.Set("flow.itc.run@b14/M4", func() {
		runs.Add(1)
		time.Sleep(timeout + time.Second)
	})

	opt := robustITCOpts()
	opt.JobTimeout = timeout
	rows, err := RunITC(context.Background(), opt)
	if err == nil {
		t.Fatal("blown deadline did not surface an error")
	}
	cellErr := rows[0].Errors[4]
	if cellErr == nil || !strings.Contains(cellErr.Error(), "jobtimeout") {
		t.Errorf("cell error does not mention the deadline: %v", cellErr)
	}
	if !errors.Is(cellErr, context.DeadlineExceeded) {
		t.Errorf("cell error does not wrap DeadlineExceeded: %v", cellErr)
	}
	if _, ok := rows[0].Results[6]; !ok {
		t.Error("sibling cell b14/M6 was poisoned by the timeout")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("stalled cell ran %d times, want 1 (a deterministic cell is never retried in-process)", got)
	}
}

// TestRunITCCellRunnerAllInFlight: with a CellRunner, RunITC hands every
// cell to the runner at once, serial or parallel — the coordinator's
// queue, not the core count, bounds execution — so a runner that waits
// for all four cells to arrive is not starved on a one-core host.
func TestRunITCCellRunnerAllInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cells = 4
	for _, parallel := range []bool{true, false} {
		var entered atomic.Int32
		all := make(chan struct{})
		opt := ITCOptions{Benchmarks: []string{"b14", "b15"}, Parallel: parallel}
		opt.CellRunner = func(ctx context.Context, bench string, layer int) (SplitResult, error) {
			if entered.Add(1) == cells {
				close(all)
			}
			select {
			case <-all:
				return SplitResult{SplitLayer: layer}, nil
			case <-time.After(5 * time.Second):
				return SplitResult{}, errors.New("cell waited 5s for its siblings to enter the runner")
			}
		}
		rows, err := RunITC(context.Background(), opt)
		if err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		for _, row := range rows {
			if len(row.Results) != 2 {
				t.Errorf("parallel=%v: %s: %d cells, want 2", parallel, row.Benchmark, len(row.Results))
			}
		}
	}
}

// TestRunITCResumeIdentical is the crash-recovery contract end to end:
// a run killed after its first completed cell leaves a manifest from
// which a resumed run reproduces exactly the uninterrupted tables,
// recomputing only the missing cells.
func TestRunITCResumeIdentical(t *testing.T) {
	defer faultpoint.Reset()

	control, err := RunITC(context.Background(), robustITCOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the first cell checkpoints.
	path := filepath.Join(t.TempDir(), "run.json")
	fp := runmanifest.Fingerprint{
		Experiment: "itc", Scale: 0.03, KeyBits: 48, Patterns: 1 << 10, Seed: 4,
		SplitLayers: []int{4, 6}, Benchmarks: []string{"b14"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultpoint.Set("flow.itc.cell.done", func() { cancel() })
	opt := robustITCOpts()
	opt.Manifest = runmanifest.New(path, fp)
	rows, err := RunITC(ctx, opt)
	faultpoint.Reset()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if len(rows[0].Errors) != 0 {
		t.Fatalf("interrupt recorded as cell failure: %v", rows[0].Errors)
	}

	// Resume from the flushed manifest; count recomputed cells.
	m, err := runmanifest.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	done := m.Len()
	if done == 0 || done == 2 {
		t.Fatalf("manifest holds %d cells after the interrupt, want exactly the pre-cancel progress", done)
	}
	var recomputed atomic.Int32
	faultpoint.Set("flow.itc.run", func() { recomputed.Add(1) })
	opt = robustITCOpts()
	opt.Manifest = m
	resumed, err := RunITC(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(recomputed.Load()), 2-done; got != want {
		t.Errorf("resume recomputed %d cells, want %d (checkpointed cells must be reused)", got, want)
	}

	// The tables print everything but Runtime (wall-clock, inherently
	// non-deterministic); all table-visible fields must match exactly.
	zeroRuntime := func(rows []ITCRow) {
		for _, r := range rows {
			for sl, res := range r.Results {
				res.Runtime = 0
				r.Results[sl] = res
			}
		}
	}
	zeroRuntime(control)
	zeroRuntime(resumed)
	if !reflect.DeepEqual(control, resumed) {
		t.Errorf("resumed run diverged from the uninterrupted control:\ncontrol: %+v\nresumed: %+v", control, resumed)
	}
}

// TestRunITCCancelledFlow: cancelling mid-run must reach into a running
// flow (not just skip queued jobs) and return promptly.
func TestRunITCCancelledFlow(t *testing.T) {
	defer faultpoint.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultpoint.Set("flow.itc.run", func() { cancel() }) // cancel once the first job starts

	start := time.Now()
	rows, err := RunITC(ctx, robustITCOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	for sl, cerr := range rows[0].Errors {
		t.Errorf("interrupted cell M%d recorded as failed: %v", sl, cerr)
	}
}

// TestRunCellsFailuresLeaveZeroRows: when several Table III, Fig. 5 or
// ideal-attack benchmarks fail (the first two under Parallel), every
// failed row stays zero and the error names the lowest-index failure
// first, whichever finished first, then every later one.
func TestRunCellsFailuresLeaveZeroRows(t *testing.T) {
	benches := []string{"nosuch1", "nosuch2"}
	checkErr := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), "nosuch1: ") || !strings.Contains(err.Error(), "\nnosuch2: ") {
			t.Fatalf("%s error %v, want the nosuch1 failure, then the nosuch2 one", name, err)
		}
	}
	for i := 0; i < 10; i++ {
		iscas, err := RunISCAS(context.Background(), ISCASOptions{Benchmarks: benches, Parallel: true})
		checkErr("RunISCAS", err)
		for bi, row := range iscas {
			if !reflect.DeepEqual(row, ISCASRow{}) {
				t.Fatalf("RunISCAS row %d of a failed benchmark is %+v, want zero", bi, row)
			}
		}
		fig5, err := RunFig5(context.Background(), Fig5Options{Benchmarks: benches, Parallel: true})
		checkErr("RunFig5", err)
		for bi, row := range fig5 {
			if row != (Fig5Row{}) {
				t.Fatalf("RunFig5 row %d of a failed benchmark is %+v, want zero", bi, row)
			}
		}
	}
	ideal, err := RunIdeal(context.Background(), IdealOptions{Benchmarks: benches, Runs: 1})
	checkErr("RunIdeal", err)
	for bi, row := range ideal {
		if row != (IdealAttackResult{}) {
			t.Fatalf("RunIdeal row %d of a failed benchmark is %+v, want zero", bi, row)
		}
	}
}

// TestRunCellsIsolatesPanics: a panic in one cell of any experiment
// becomes that cell's error, prefixed by its key, while the other cells
// finish and each finished or failed cell gets one progress call.
func TestRunCellsIsolatesPanics(t *testing.T) {
	var calls []string
	outs, err := runCells(context.Background(), cells[int]{
		keys: []string{"a", "b", "c"},
		run: func(_ context.Context, i int, _ func() int) (int, error) {
			if i == 1 {
				panic("injected fault")
			}
			return i + 10, nil
		},
		parallel: true,
		progress: func(key string, done, total int) {
			calls = append(calls, key)
			if done != len(calls) || total != 3 {
				t.Errorf("progress(%s, %d, %d), want done %d of 3", key, done, total, len(calls))
			}
		},
	})
	if err == nil || !strings.HasPrefix(err.Error(), "b: job panicked: injected fault") {
		t.Fatalf("error %v, want cell b's panic", err)
	}
	if len(calls) != 3 {
		t.Errorf("%d progress calls, want 3", len(calls))
	}
	if got := results(outs); !reflect.DeepEqual(got, []int{10, 0, 12}) {
		t.Errorf("results %v, want [10 0 12]", got)
	}
	if outs[1].err == nil || outs[1].done {
		t.Errorf("panicked cell outcome %+v, want its error and no result", outs[1])
	}
}

// TestRunCellsWidthFollowsRunningCells: a parallel cell's simulation
// width is read as the simulation starts, over the cells running then.
// On two cores, two running cells get one worker each; the cell still
// running after its sibling returned gets both.
func TestRunCellsWidthFollowsRunningCells(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	wait := func(ch <-chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("cell waited 5s for " + what)
		}
	}
	var arrived atomic.Int32
	both, secondRead, firstDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	widths := make([][]int, 2)
	_, err := runCells(context.Background(), cells[int]{
		keys: []string{"first", "second"},
		run: func(_ context.Context, i int, simWorkers func() int) (int, error) {
			if arrived.Add(1) == 2 {
				close(both)
			}
			if err := wait(both, "its sibling to start"); err != nil {
				return 0, err
			}
			widths[i] = append(widths[i], simWorkers())
			if i == 0 {
				// Return as soon as the sibling has read its width too.
				return 0, wait(secondRead, "its sibling to read its width")
			}
			close(secondRead)
			if err := wait(firstDone, "its sibling to finish"); err != nil {
				return 0, err
			}
			widths[i] = append(widths[i], simWorkers())
			return 0, nil
		},
		parallel: true,
		progress: func(key string, _, _ int) {
			if key == "first" {
				close(firstDone)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{1}, {1, 2}}; !reflect.DeepEqual(widths, want) {
		t.Fatalf("simulation widths %v, want %v (1 each while both run, GOMAXPROCS for the last)", widths, want)
	}
}
