package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// pipeWorker runs ServeWorker in-process over io.Pipe pairs: the real
// worker code, the real line protocol, no subprocess. Kill severs both
// pipes, which is as abrupt as SIGKILL from the coordinator's side.
type pipeWorker struct {
	in     *io.PipeWriter // coordinator → worker
	out    *io.PipeReader // worker → coordinator
	msgs   chan Message
	cancel context.CancelFunc
	killed atomic.Bool
}

func (p *pipeWorker) String() string { return "pipe" }

func (p *pipeWorker) Assign(m Message) error {
	line, err := encodeLine(m)
	if err != nil {
		return err
	}
	_, err = p.in.Write(append(line, '\n'))
	return err
}

func (p *pipeWorker) Messages() <-chan Message { return p.msgs }

func (p *pipeWorker) Kill() {
	if p.killed.CompareAndSwap(false, true) {
		p.cancel()
		p.in.CloseWithError(io.ErrClosedPipe)
		p.out.CloseWithError(io.ErrClosedPipe)
	}
}

func (p *pipeWorker) read() {
	defer close(p.msgs)
	sc := bufio.NewScanner(p.out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		m, err := decodeLine(line)
		if err != nil {
			p.msgs <- Message{Type: msgMalformed, Error: err.Error()}
			p.Kill()
			return
		}
		p.msgs <- m
	}
}

// pipeSpawner spawns in-memory workers running fn.
func pipeSpawner(fn CellFunc) SpawnFunc {
	return func(ctx context.Context, id int) (Worker, error) {
		workerIn, coordOut := io.Pipe()
		coordIn, workerOut := io.Pipe()
		wctx, cancel := context.WithCancel(ctx)
		go func() {
			_ = ServeWorker(wctx, workerIn, workerOut, WorkerOptions{
				ID:                id,
				HeartbeatInterval: 20 * time.Millisecond,
				Run:               fn,
			})
			workerOut.Close()
		}()
		p := &pipeWorker{in: coordOut, out: coordIn, msgs: make(chan Message, 8), cancel: cancel}
		go p.read()
		return p, nil
	}
}

// echoCell marshals the spec — deterministic, so every attempt on every
// worker yields identical bytes.
func echoCell(ctx context.Context, spec CellSpec) (json.RawMessage, error) {
	if spec.Bench == "fail" {
		return nil, fmt.Errorf("cell %s: synthetic failure", spec.Key())
	}
	return json.Marshal(spec)
}

// logBuf captures coordinator logs for assertions.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (b *logBuf) logf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *logBuf) contains(sub string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func spawners(n int, fn CellFunc) []SpawnFunc {
	out := make([]SpawnFunc, n)
	for i := range out {
		out[i] = pipeSpawner(fn)
	}
	return out
}

func TestRunCellsAcrossWorkers(t *testing.T) {
	c, err := New(Options{Spawners: spawners(2, echoCell)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(layer int) {
			defer wg.Done()
			spec := CellSpec{Bench: "b14", Layer: layer, Scale: 0.05, KeyBits: 16, Patterns: 64, Seed: 7}
			got, err := c.RunCell(context.Background(), spec)
			if err != nil {
				t.Errorf("cell M%d: %v", layer, err)
				return
			}
			want, _ := json.Marshal(spec)
			if string(got) != string(want) {
				t.Errorf("cell M%d payload = %s, want %s", layer, got, want)
			}
		}(i + 1)
	}
	wg.Wait()
}

// A clean cell failure is the cell's outcome: no crash budget charged,
// the worker keeps serving.
func TestCellErrorIsNotACrash(t *testing.T) {
	lb := &logBuf{}
	c, err := New(Options{Spawners: spawners(1, echoCell), Logf: lb.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.RunCell(context.Background(), CellSpec{Bench: "fail", Layer: 1})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("failing cell returned %v, want the cell's own error", err)
	}
	if IsQuarantined(err) {
		t.Fatal("clean cell failure was reported as quarantine")
	}
	// Same worker must still serve.
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 2}); err != nil {
		t.Fatalf("worker unusable after a clean cell failure: %v", err)
	}
	if lb.contains("killing") {
		t.Fatalf("a clean cell failure killed a worker: %v", lb.lines)
	}
}

// A worker that goes silent mid-cell (frozen before its first
// heartbeat) has its lease expired; the cell is reassigned to the
// replacement worker and still completes with identical bytes.
func TestLeaseExpiryReassigns(t *testing.T) {
	defer faultpoint.Reset()
	// Freeze worker 1 at cell start: no heartbeats ever arrive. The
	// respawned worker gets id 2, where the site is unarmed.
	faultpoint.Set("dispatch.worker.cell.start#1", func() { time.Sleep(time.Minute) })
	lb := &logBuf{}
	c, err := New(Options{
		Spawners:     spawners(1, echoCell),
		LeaseTimeout: 150 * time.Millisecond,
		BackoffBase:  10 * time.Millisecond,
		Logf:         lb.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := CellSpec{Bench: "b14", Layer: 3, Seed: 11}
	got, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("cell did not survive a frozen worker: %v", err)
	}
	want, _ := json.Marshal(spec)
	if string(got) != string(want) {
		t.Fatalf("payload after reassignment = %s, want %s", got, want)
	}
	if !lb.contains("lease expired") {
		t.Fatalf("no lease expiry logged; lines: %v", lb.lines)
	}
}

// A cell that freezes every worker it touches exhausts its crash budget
// and is quarantined — while other cells keep flowing.
func TestQuarantineAfterCrashBudget(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Set("dispatch.worker.cell.start@bad/M1", func() { time.Sleep(time.Minute) })
	lb := &logBuf{}
	c, err := New(Options{
		Spawners:     spawners(1, echoCell),
		LeaseTimeout: 100 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		CrashBudget:  2,
		Logf:         lb.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.RunCell(context.Background(), CellSpec{Bench: "bad", Layer: 1, Seed: 3})
	var q *QuarantineError
	if !IsQuarantined(err) {
		t.Fatalf("poison cell returned %v, want quarantine", err)
	}
	if ok := errors.As(err, &q); !ok || q.Deaths != 2 || q.Cell != "bad/M1" {
		t.Fatalf("quarantine detail = %+v", q)
	}
	// The sweep proceeds: a healthy cell completes after the quarantine.
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 1}); err != nil {
		t.Fatalf("healthy cell after quarantine: %v", err)
	}
}

// A worker emitting torn JSON is poisoned: killed, the cell charged and
// reassigned, and the replacement's clean result wins.
func TestCorruptPayloadPoisonsWorker(t *testing.T) {
	defer faultpoint.Reset()
	// Behavioral site: fires once (first result), replacement is clean.
	if err := faultpoint.Arm("dispatch.worker.corrupt-payload@b14/M2:after=1:panic"); err != nil {
		t.Fatal(err)
	}
	lb := &logBuf{}
	c, err := New(Options{
		Spawners:    spawners(1, echoCell),
		BackoffBase: 5 * time.Millisecond,
		Logf:        lb.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := CellSpec{Bench: "b14", Layer: 2, Seed: 9}
	got, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("cell did not survive a corrupt payload: %v", err)
	}
	want, _ := json.Marshal(spec)
	if string(got) != string(want) {
		t.Fatalf("payload = %s, want %s", got, want)
	}
	if !lb.contains("unparsable worker output") {
		t.Fatalf("corruption not diagnosed; lines: %v", lb.lines)
	}
}

// A worker that computes a cell but never reports it (dropped result)
// is indistinguishable from a hang: the lease expires and the cell is
// reassigned.
func TestDropResultExpiresLease(t *testing.T) {
	defer faultpoint.Reset()
	if err := faultpoint.Arm("dispatch.worker.drop-result@b14/M5:after=1:panic"); err != nil {
		t.Fatal(err)
	}
	lb := &logBuf{}
	c, err := New(Options{
		Spawners:     spawners(1, echoCell),
		LeaseTimeout: 150 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		Logf:         lb.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := CellSpec{Bench: "b14", Layer: 5, Seed: 2}
	got, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("cell did not survive a dropped result: %v", err)
	}
	want, _ := json.Marshal(spec)
	if string(got) != string(want) {
		t.Fatalf("payload = %s, want %s", got, want)
	}
	if !lb.contains("lease expired") {
		t.Fatalf("dropped result did not expire the lease; lines: %v", lb.lines)
	}
}

// When every slot retires (spawner permanently broken), pending cells
// fail with ErrNoWorkers instead of waiting forever.
func TestAllSlotsRetiredFailsPending(t *testing.T) {
	broken := func(ctx context.Context, id int) (Worker, error) {
		return nil, fmt.Errorf("no such binary")
	}
	c, err := New(Options{
		Spawners:    []SpawnFunc{broken},
		BackoffBase: time.Millisecond,
		MaxStrikes:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.RunCell(ctx, CellSpec{Bench: "b14", Layer: 1})
	if err == nil || !strings.Contains(err.Error(), "no workers left") {
		t.Fatalf("stranded cell returned %v, want ErrNoWorkers", err)
	}
}

func TestCloseFailsInFlight(t *testing.T) {
	block := func(ctx context.Context, spec CellSpec) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	c, err := New(Options{Spawners: spawners(1, block)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 1})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the lease start
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("in-flight cell returned %v at Close, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunCell did not return after Close")
	}
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 2}); err != ErrClosed {
		t.Fatalf("RunCell after Close = %v, want ErrClosed", err)
	}
}

// jitter is a pure function of (seed, salt, attempt, window): identical
// inputs reproduce identical backoff, different cells de-phase.
func TestJitterDeterministic(t *testing.T) {
	d := 400 * time.Millisecond
	a := jitter(42, "b14/M4", 1, d)
	b := jitter(42, "b14/M4", 1, d)
	if a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	if a < 0 || a > d/2 {
		t.Fatalf("jitter %v outside [0, %v]", a, d/2)
	}
	distinct := map[time.Duration]bool{}
	for attempt := 1; attempt <= 8; attempt++ {
		distinct[jitter(42, "b14/M4", attempt, d)] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("jitter barely varies across attempts: %d distinct of 8", len(distinct))
	}
	if jitter(42, "b14/M4", 1, d) == jitter(42, "b17/M4", 1, d) &&
		jitter(42, "b14/M4", 2, d) == jitter(42, "b17/M4", 2, d) {
		t.Fatal("different cells share the same jitter sequence")
	}
}
