package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// pipeTransport runs each attempt's ServeCell in-process over an
// io.Pipe: the real worker code, the real line protocol, no subprocess.
// Stopping the attempt severs the pipe, which is as abrupt as SIGKILL
// from the coordinator's side.
func pipeTransport(fn CellFunc) Transport {
	return func(ctx context.Context, spec CellSpec, id int) (io.ReadCloser, error) {
		r, w := io.Pipe()
		context.AfterFunc(ctx, func() { r.CloseWithError(context.Canceled) })
		go func() {
			w.CloseWithError(ServeCell(ctx, w, spec, WorkerOptions{
				ID:                id,
				HeartbeatInterval: 20 * time.Millisecond,
				Run:               fn,
			}))
		}()
		return r, nil
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

func slots(n int, fn CellFunc) []Slot {
	out := make([]Slot, n)
	for i := range out {
		out[i] = Slot{Name: "pipe", Open: pipeTransport(fn)}
	}
	return out
}

func TestRunCellsAcrossWorkers(t *testing.T) {
	c, err := New(Options{Slots: slots(2, echoCell)})
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
// no worker killed, the slot keeps serving.
func TestCellErrorIsNotACrash(t *testing.T) {
	lb := &logBuf{}
	c, err := New(Options{Slots: slots(1, echoCell), Logf: lb.logf})
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
	// The same slot must still serve.
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 2}); err != nil {
		t.Fatalf("worker unusable after a clean cell failure: %v", err)
	}
	if lb.contains("killing") {
		t.Fatalf("a clean cell failure killed a worker: %v", lb.lines)
	}
}

// A worker that goes silent mid-cell (frozen before its first
// heartbeat) has its lease expired; the cell's next attempt completes
// with identical bytes.
func TestLeaseExpiryReassigns(t *testing.T) {
	defer faultpoint.Reset()
	// Freeze worker 1 at cell start: no heartbeats ever arrive. The
	// next attempt gets worker id 2, where the site is unarmed.
	faultpoint.Set("dispatch.worker.cell.start#1", func() { time.Sleep(time.Minute) })
	lb := &logBuf{}
	c, err := newCoordinator(Options{
		Slots:        slots(1, echoCell),
		LeaseTimeout: 150 * time.Millisecond,
		Logf:         lb.logf,
	}, 10*time.Millisecond, maxBackoff, maxStrikes)
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
	c, err := newCoordinator(Options{
		Slots:        slots(1, echoCell),
		LeaseTimeout: 100 * time.Millisecond,
		CrashBudget:  2,
		Logf:         lb.logf,
	}, 5*time.Millisecond, maxBackoff, maxStrikes)
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
// reassigned, and the next attempt's clean result wins.
func TestCorruptPayloadPoisonsWorker(t *testing.T) {
	defer faultpoint.Reset()
	// Behavioral site: fires once (first result), the retry is clean.
	if err := faultpoint.Arm("dispatch.worker.corrupt-payload@b14/M2:after=1:panic"); err != nil {
		t.Fatal(err)
	}
	lb := &logBuf{}
	c, err := newCoordinator(Options{
		Slots: slots(1, echoCell),
		Logf:  lb.logf,
	}, 5*time.Millisecond, maxBackoff, maxStrikes)
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
	c, err := newCoordinator(Options{
		Slots:        slots(1, echoCell),
		LeaseTimeout: 150 * time.Millisecond,
		Logf:         lb.logf,
	}, 5*time.Millisecond, maxBackoff, maxStrikes)
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

// When every slot retires (transport permanently broken), pending cells
// fail with ErrNoWorkers instead of waiting forever.
func TestAllSlotsRetiredFailsPending(t *testing.T) {
	broken := func(ctx context.Context, spec CellSpec, id int) (io.ReadCloser, error) {
		return nil, fmt.Errorf("no such binary")
	}
	c, err := newCoordinator(Options{
		Slots: []Slot{{Name: "broken", Open: broken}},
	}, time.Millisecond, maxBackoff, 3)
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
	c, err := New(Options{Slots: slots(1, block)})
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

// A stream whose hello speaks another protocol version is the slot's
// fault, not the cell's: the cell is requeued uncharged (at crash
// budget 1 a charged death would quarantine it) and the slot takes a
// strike. Here a daemon answers its first cell with a version-2 hello
// and serves the retry properly.
func TestVersionMismatchIsNotACellDeath(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var spec CellSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if calls.Add(1) == 1 {
			fmt.Fprintln(w, `{"t":"hello","v":2}`)
			w.(http.Flusher).Flush()
			<-r.Context().Done() // a worker of another version, still running
			return
		}
		_ = ServeCell(r.Context(), w, spec, WorkerOptions{Run: echoCell})
	}))
	defer ts.Close()
	lb := &logBuf{}
	c, err := newCoordinator(Options{
		Slots:       []Slot{{Name: ts.URL, Open: HTTPTransport(ts.URL)}},
		CrashBudget: 1,
		Logf:        lb.logf,
	}, time.Millisecond, maxBackoff, maxStrikes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := CellSpec{Bench: "b14", Layer: 4, Seed: 6}
	got, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("cell after a version mismatch: %v", err)
	}
	want, _ := json.Marshal(spec)
	if string(got) != string(want) {
		t.Fatalf("payload = %s, want %s", got, want)
	}
	if !lb.contains("speaks protocol 2") || lb.contains("death") {
		t.Fatalf("mismatch not handled as a rejection; lines: %v", lb.lines)
	}
}

// An address that serves no /v1/cells (404) is the slot's fault: every
// attempt is rejected, the slot retires, and the cell fails with
// ErrNoWorkers rather than with the 404 as its own error.
func TestHTTPNotFoundRetiresSlot(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	c, err := newCoordinator(Options{
		Slots: []Slot{{Name: ts.URL, Open: HTTPTransport(ts.URL)}},
	}, time.Millisecond, maxBackoff, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 1})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("cell on a 404 address returned %v, want ErrNoWorkers", err)
	}
}

// A cancelled RunCell withdraws its cell: the running attempt is
// stopped (its CellFunc sees its context done) with no death charged,
// a queued cell whose caller is gone never starts, and the slot keeps
// serving.
func TestCancelledRunCellWithdrawsCell(t *testing.T) {
	started, stopped := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var ran []string
	fn := func(ctx context.Context, spec CellSpec) (json.RawMessage, error) {
		mu.Lock()
		ran = append(ran, spec.Key())
		mu.Unlock()
		if spec.Bench == "block" {
			close(started)
			<-ctx.Done()
			close(stopped)
			return nil, ctx.Err()
		}
		return echoCell(ctx, spec)
	}
	lb := &logBuf{}
	c, err := New(Options{Slots: slots(1, fn), Logf: lb.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RunCell(ctx, CellSpec{Bench: "block", Layer: 1})
		done <- err
	}()
	<-started
	// Queued behind the blocked cell with its caller already gone.
	gone, goneCancel := context.WithCancel(context.Background())
	goneCancel()
	if _, err := c.RunCell(gone, CellSpec{Bench: "gone", Layer: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCell with a done context = %v, want context.Canceled", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunCell = %v, want context.Canceled", err)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("the withdrawn cell's attempt was not stopped")
	}
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 2}); err != nil {
		t.Fatalf("slot unusable after a withdrawn cell: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(ran, ","); got != "block/M1,b14/M2" {
		t.Fatalf("cells run = %s, want block/M1,b14/M2", got)
	}
	if lb.contains("death") || lb.contains("reassigning") || lb.contains("rejected") {
		t.Fatalf("a withdrawn cell was charged; lines: %v", lb.lines)
	}
}

// openLog wraps a transport to record, in order, which cell each
// attempt opened and when.
type openLog struct {
	mu    sync.Mutex
	keys  []string
	times []time.Time
}

func (o *openLog) wrap(open Transport) Transport {
	return func(ctx context.Context, spec CellSpec, id int) (io.ReadCloser, error) {
		o.mu.Lock()
		o.keys = append(o.keys, spec.Key())
		o.times = append(o.times, time.Now())
		o.mu.Unlock()
		return open(ctx, spec, id)
	}
}

// A cell that killed its worker waits out its backoff (backoffBase
// after the first death, plus jitter) before it is leased again.
func TestDeathBackoffDelaysRelease(t *testing.T) {
	defer faultpoint.Reset()
	if err := faultpoint.Arm("dispatch.worker.corrupt-payload@b14/M3:after=1:panic"); err != nil {
		t.Fatal(err)
	}
	const base = 300 * time.Millisecond
	var ol openLog
	c, err := newCoordinator(Options{
		Slots: []Slot{{Name: "pipe", Open: ol.wrap(pipeTransport(echoCell))}},
	}, base, maxBackoff, maxStrikes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ol.mu.Lock()
	defer ol.mu.Unlock()
	if len(ol.times) != 2 {
		t.Fatalf("attempts = %v, want 2", ol.keys)
	}
	if gap := ol.times[1].Sub(ol.times[0]); gap < base {
		t.Fatalf("cell leased again %v after its worker died, before the %v backoff", gap, base)
	}
}

// A rejected cell goes back to the front of the queue: its next
// attempt comes ahead of cells that were queued behind it.
func TestRejectedCellLeasedFirst(t *testing.T) {
	opening, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var ol openLog
	pipe := pipeTransport(echoCell)
	refuseFirst := func(ctx context.Context, spec CellSpec, id int) (io.ReadCloser, error) {
		refuse := false
		once.Do(func() { close(opening); <-release; refuse = true })
		if refuse {
			return nil, errors.New("busy")
		}
		return pipe(ctx, spec, id)
	}
	c, err := newCoordinator(Options{
		Slots: []Slot{{Name: "pipe", Open: ol.wrap(refuseFirst)}},
	}, time.Millisecond, maxBackoff, maxStrikes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	run := func(layer int) {
		defer wg.Done()
		if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: layer}); err != nil {
			t.Errorf("cell M%d: %v", layer, err)
		}
	}
	wg.Add(1)
	go run(1)
	<-opening
	// Queue M2 and M3 while M1's first attempt is still opening.
	for layer := 2; layer <= 3; layer++ {
		wg.Add(1)
		go run(layer)
		for queued := false; !queued; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			queued = len(c.queue) == layer-1
			c.mu.Unlock()
		}
	}
	close(release)
	wg.Wait()
	ol.mu.Lock()
	defer ol.mu.Unlock()
	if got := strings.Join(ol.keys, ","); got != "b14/M1,b14/M1,b14/M2,b14/M3" {
		t.Fatalf("lease order = %s, want the rejected b14/M1 again first", got)
	}
}
