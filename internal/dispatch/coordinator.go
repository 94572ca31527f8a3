package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by RunCell once the coordinator is shut down.
var ErrClosed = errors.New("dispatch: coordinator closed")

// ErrNoWorkers is returned when every worker slot has been retired
// (exceeded its consecutive-failure budget): the sweep degrades to an
// explicit per-cell error instead of hanging forever.
var ErrNoWorkers = errors.New("dispatch: no workers left (all slots retired)")

// QuarantineError reports a cell that exhausted its crash budget: it
// killed (or poisoned) CrashBudget workers in a row and was taken out of
// rotation so the rest of the sweep can finish. The cell's row records
// this error; nothing else is affected.
type QuarantineError struct {
	Cell   string
	Deaths int
	Cause  string // the last attempt's failure
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("cell %s quarantined after killing %d workers (last: %s)", e.Cell, e.Deaths, e.Cause)
}

// IsQuarantined reports whether err is (or wraps) a QuarantineError.
func IsQuarantined(err error) bool {
	var q *QuarantineError
	return errors.As(err, &q)
}

// Options configures a Coordinator.
type Options struct {
	// Slots is one entry per worker slot; each runs one attempt at a
	// time through its own transport.
	Slots []Slot
	// LeaseTimeout expires a lease whose worker has not heartbeat for
	// this long (default 15s; workers beat every 500ms by default, so the
	// default tolerates ~30 missed beats).
	LeaseTimeout time.Duration
	// CrashBudget is the per-cell worker-death budget: the deaths'th
	// death quarantines the cell (default 3).
	CrashBudget int
	// Logf, when non-nil, receives dispatch lifecycle events (leases,
	// expirations, reassignments, quarantines).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 15 * time.Second
	}
	if o.CrashBudget <= 0 {
		o.CrashBudget = 3
	}
	return o
}

// Reassignment and retirement policy.
const (
	// backoffBase is the reassignment delay after a cell's first worker
	// death, doubling per death, plus a deterministic seed-derived
	// jitter; a slot's delay before its next attempt doubles from it
	// after its second strike.
	backoffBase = 250 * time.Millisecond
	// maxBackoff caps the doubling.
	maxBackoff = 15 * time.Second
	// maxStrikes retires a slot after this many consecutive failures
	// (attempts that would not start, or died, with no completed cell in
	// between); a retired slot runs no more attempts. With every slot
	// retired, pending cells fail with ErrNoWorkers instead of waiting
	// forever.
	maxStrikes = 8
)

// task is one cell making its way through the dispatch layer.
type task struct {
	spec   CellSpec
	ctx    context.Context // the RunCell caller's: once done, the cell is withdrawn
	deaths int             // workers this cell has killed or poisoned
	res    chan taskResult
}

type taskResult struct {
	payload json.RawMessage
	err     error
}

// resolve delivers the task's outcome exactly once (the channel is
// buffered; a slot never blocks on a caller).
func (t *task) resolve(payload json.RawMessage, err error) {
	select {
	case t.res <- taskResult{payload, err}:
	default:
	}
}

// Coordinator runs one goroutine per worker slot over one ready queue.
// A slot takes the next ready cell, runs one attempt of it, and settles
// the cell by how the attempt ended; a cell in death backoff waits on
// its own timer, outside the queue.
type Coordinator struct {
	opt    Options
	ctx    context.Context // parent of every attempt; cancelled by Close
	cancel context.CancelFunc

	// The reassignment and retirement policy: backoffBase, maxBackoff
	// and maxStrikes outside tests.
	backoffBase, maxBackoff time.Duration
	maxStrikes              int

	mu     sync.Mutex
	ready  *sync.Cond // signalled by every push, broadcast by Close
	queue  []*task
	live   int // slots not retired
	lastID int // the worker id of the last attempt started
	slots  sync.WaitGroup
}

// New starts a coordinator over the given worker slots. Close must be
// called to stop and reap the attempts in flight.
func New(opt Options) (*Coordinator, error) {
	return newCoordinator(opt, backoffBase, maxBackoff, maxStrikes)
}

// newCoordinator is New with the reassignment and retirement policy as
// arguments, so tests can shorten it.
func newCoordinator(opt Options, base, ceiling time.Duration, strikes int) (*Coordinator, error) {
	opt = opt.withDefaults()
	if len(opt.Slots) == 0 {
		return nil, errors.New("dispatch: coordinator needs at least one worker slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opt:         opt,
		ctx:         ctx,
		cancel:      cancel,
		backoffBase: base,
		maxBackoff:  ceiling,
		maxStrikes:  strikes,
		live:        len(opt.Slots),
	}
	c.ready = sync.NewCond(&c.mu)
	for _, s := range opt.Slots {
		c.slots.Add(1)
		go c.serve(s)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// RunCell dispatches one cell and blocks until a worker (any worker, on
// any attempt) returns its payload, the cell fails cleanly or is
// quarantined, or ctx/the coordinator is done. A done ctx withdraws the
// cell: a queued cell is skipped and a running attempt is stopped,
// charging neither the cell nor its slot. The payload is the worker's
// JSON result, byte-identical to a local run's marshaled cell.
func (c *Coordinator) RunCell(ctx context.Context, spec CellSpec) (json.RawMessage, error) {
	t := &task{spec: spec, ctx: ctx, res: make(chan taskResult, 1)}
	c.push(t, false)
	select {
	case r := <-t.res:
		return r.payload, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.ctx.Done():
		return nil, ErrClosed
	}
}

// Close shuts the coordinator down: pending cells fail with ErrClosed
// and every attempt in flight is killed and reaped.
func (c *Coordinator) Close() {
	c.cancel()
	c.mu.Lock()
	c.ready.Broadcast()
	c.mu.Unlock()
	c.slots.Wait()
}

// push makes t ready, at the front of the queue for an uncharged retry,
// or fails it if no slot will ever serve it.
func (c *Coordinator) push(t *task, front bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.ctx.Err() != nil:
		t.resolve(nil, ErrClosed)
	case c.live == 0:
		t.resolve(nil, fmt.Errorf("%w (cell %s)", ErrNoWorkers, t.spec.Key()))
	case front:
		c.queue = append([]*task{t}, c.queue...)
	default:
		c.queue = append(c.queue, t)
	}
	c.ready.Signal()
}

// next blocks until a cell is ready and returns it with a fresh worker
// id for its attempt, dropping cells whose caller is gone; nil once the
// coordinator is closed.
func (c *Coordinator) next() (*task, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ctx.Err() == nil {
		for len(c.queue) > 0 {
			t := c.queue[0]
			c.queue = c.queue[1:]
			if t.ctx.Err() == nil {
				c.lastID++
				return t, c.lastID
			}
		}
		c.ready.Wait()
	}
	return nil, 0
}

// retire takes a slot out of service. The last slot to go fails every
// queued cell, and every later push, with ErrNoWorkers — graceful
// degradation beats a sweep that never returns.
func (c *Coordinator) retire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live--; c.live > 0 {
		return
	}
	for _, t := range c.queue {
		t.resolve(nil, fmt.Errorf("%w (cell %s)", ErrNoWorkers, t.spec.Key()))
	}
	c.queue = nil
}

// serve is one worker slot: it runs one attempt at a time until the
// coordinator closes or the slot retires. Each failed attempt is a
// strike; maxStrikes in a row retire the slot.
func (c *Coordinator) serve(s Slot) {
	defer c.slots.Done()
	strikes := 0
	for {
		t, id := c.next()
		if t == nil {
			return
		}
		c.logf("dispatch: leased %s to worker %d (%s, lease %d)", t.spec.Key(), id, s.Name, id)
		if !c.attempt(s, t, id) {
			strikes = 0
			continue
		}
		if strikes++; strikes >= c.maxStrikes {
			c.logf("dispatch: retiring worker slot %s after %d consecutive failures", s.Name, strikes)
			c.retire()
			return
		}
		// Try again promptly after a first failure, with doubling delay
		// for repeat offenders so a crash-looping slot does not spin.
		if strikes > 1 {
			select {
			case <-time.After(min(c.backoffBase<<(strikes-2), c.maxBackoff)):
			case <-c.ctx.Done():
			}
		}
	}
}

// rejected ends an attempt that could not serve its cell through no
// fault of the cell: a transport that would not start, a daemon busy or
// unreachable, a worker of another protocol version. The cell goes back
// to the front of the queue uncharged — it never ran, so it cannot have
// killed anything.
type rejected string

func (r rejected) Error() string { return string(r) }

// attempt runs one attempt of t on slot s, settles the cell (resolved,
// requeued or quarantined) and reports whether the attempt failed: a
// strike against the slot. The lease is a timer that every heartbeat
// renews. When it fires, the caller withdraws or the coordinator
// closes, the attempt's context is cancelled, which kills the worker
// process or aborts the request; a withdrawn or closed attempt is no
// strike.
func (c *Coordinator) attempt(s Slot, t *task, id int) (failed bool) {
	ctx, stop := context.WithCancel(c.ctx)
	defer stop()
	var expired atomic.Bool
	lease := time.AfterFunc(c.opt.LeaseTimeout, func() { expired.Store(true); stop() })
	defer lease.Stop()
	defer context.AfterFunc(t.ctx, stop)()

	var m Message
	var ce *cellError
	rc, err := s.Open(ctx, t.spec, id)
	switch {
	case err == nil:
		m, err = read(rc, t.spec.Key(), func() { lease.Reset(c.opt.LeaseTimeout) })
		stop() // a worker still running after its last line is killed, then reaped
		rc.Close()
	case errors.As(err, &ce):
		m, err = Message{Type: MsgError, Error: ce.msg}, nil
	default:
		err = rejected(err.Error())
	}

	worker, key := fmt.Sprintf("worker %d (%s)", id, s.Name), t.spec.Key()
	switch {
	case err == nil && m.Type == MsgResult:
		t.resolve(m.Payload, nil)
	case err == nil:
		// A clean cell failure: the worker is healthy (it already spent
		// its in-process retry budget); the error is the cell's outcome.
		t.resolve(nil, errors.New(m.Error))
	case c.ctx.Err() != nil:
		t.resolve(nil, ErrClosed)
	case t.ctx.Err() != nil:
		// Withdrawn: RunCell has already returned.
	case expired.Load():
		cause := fmt.Sprintf("lease expired: no heartbeat from %s for %v", worker, c.opt.LeaseTimeout)
		c.logf("dispatch: %s; killing worker and reassigning %s", cause, key)
		c.requeueDeath(t, cause)
		return true
	case errors.As(err, new(rejected)):
		c.logf("dispatch: %s rejected %s (%s); requeueing, backing the slot off", worker, key, err)
		c.push(t, true)
		return true
	default:
		c.logf("dispatch: %s on %s; reassigning", err, worker)
		c.requeueDeath(t, err.Error())
		return true
	}
	return false
}

// read scans one attempt's stream up to its res or err line, which it
// returns, calling heartbeat on every hb line. Any other end is an
// error: rejected for a worker of another protocol version, else the
// death the cell is charged (garbage on the stream, or a worker that
// died mid-cell).
func read(r io.Reader, key string, heartbeat func()) (Message, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		m, err := decodeLine(line)
		switch {
		case err != nil:
			return m, fmt.Errorf("unparsable worker output: %s", err)
		case m.Type == MsgHello && m.Version != ProtocolVersion:
			return m, rejected(fmt.Sprintf("it speaks protocol %d, want %d", m.Version, ProtocolVersion))
		case m.Type == MsgHeartbeat:
			heartbeat()
		case m.Type == MsgResult && (len(m.Payload) == 0 || !json.Valid(m.Payload)):
			return m, errors.New("poisoned payload for " + key)
		case m.Type == MsgResult || m.Type == MsgError:
			return m, nil
		case m.Type != MsgHello:
			return m, fmt.Errorf("unexpected %q message", m.Type)
		}
	}
	cause := "stream ended"
	if err := sc.Err(); err != nil {
		cause = err.Error()
	}
	return Message{}, fmt.Errorf("worker died mid-cell (%s: %s)", key, cause)
}

// requeueDeath charges one worker death to the cell and pushes it back
// after a doubling-plus-jitter backoff, or quarantines it once the
// crash budget is spent.
func (c *Coordinator) requeueDeath(t *task, cause string) {
	t.deaths++
	if t.deaths >= c.opt.CrashBudget {
		c.logf("dispatch: quarantining %s after %d worker deaths (last: %s)", t.spec.Key(), t.deaths, cause)
		t.resolve(nil, &QuarantineError{Cell: t.spec.Key(), Deaths: t.deaths, Cause: cause})
		return
	}
	delay := min(c.backoffBase<<(t.deaths-1), c.maxBackoff)
	delay += jitter(t.spec.Seed, t.spec.Key(), t.deaths, delay)
	c.logf("dispatch: requeued %s (death %d/%d, backoff %v)", t.spec.Key(), t.deaths, c.opt.CrashBudget, delay.Round(time.Millisecond))
	time.AfterFunc(delay, func() { c.push(t, false) })
}

// jitter derives a deterministic delay in [0, d/2) from a cell's
// identity and attempt number: doubling backoff alone synchronizes
// retries across parallel cells (they all failed together, they all
// return together), while seed-derived jitter de-phases them without
// sacrificing reproducibility.
func jitter(seed uint64, salt string, attempt int, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	x := seed ^ uint64(attempt)*0x9e3779b97f4a7c15
	for i := 0; i < len(salt); i++ {
		x = (x ^ uint64(salt[i])) * 0x100000001b3
	}
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return time.Duration(x % uint64(d/2+1))
}
