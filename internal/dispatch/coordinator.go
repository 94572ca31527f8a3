package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Coordinator-internal pseudo-message types (never on the wire): how an
// attempt ended without a res or err line.
const (
	// msgMalformed marks unparsable worker output: the attempt is
	// poisoned.
	msgMalformed MsgType = "malformed"
	// msgEnded marks a stream that ended without a result: the worker
	// died mid-cell.
	msgEnded MsgType = "ended"
	// msgRejected marks an attempt that never started (a worker process
	// that would not start, a daemon busy or unreachable): the cell is
	// requeued without charging its crash budget — the cell never ran,
	// so it cannot have killed anything.
	msgRejected MsgType = "rejected"
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
	spec      CellSpec
	notBefore time.Time // reassignment backoff gate
	deaths    int       // workers this cell has killed or poisoned
	cause     string    // last death's description
	res       chan taskResult
}

type taskResult struct {
	payload json.RawMessage
	err     error
}

// resolve delivers the task's outcome exactly once (the channel is
// buffered; the loop never blocks on a caller).
func (t *task) resolve(payload json.RawMessage, err error) {
	select {
	case t.res <- taskResult{payload, err}:
	default:
	}
}

// lease is one attempt in flight: a cell on a slot. Its ID, fresh per
// attempt, is also the attempt's worker id.
type lease struct {
	id       int
	t        *task
	slot     int
	deadline time.Time
	stop     context.CancelFunc // ends the attempt: kills its worker
}

// slotState tracks one worker slot across attempts.
type slotState struct {
	Slot
	retired bool
	readyAt time.Time // strike delay: no attempt before this
	strikes int       // consecutive failures; reset on a completed cell
	lease   *lease
}

// event is one protocol line (or pseudo-message) from the stream of the
// named lease.
type event struct {
	lease int
	msg   Message
}

// Coordinator owns the lease table and the reassignment queue. All
// state is confined to the loop goroutine; RunCell and the attempts'
// stream readers communicate over channels.
type Coordinator struct {
	opt    Options
	ctx    context.Context
	cancel context.CancelFunc

	// The reassignment and retirement policy: backoffBase, maxBackoff
	// and maxStrikes outside tests.
	backoffBase, maxBackoff time.Duration
	maxStrikes              int

	submit   chan *task
	events   chan event
	done     chan struct{}
	attempts sync.WaitGroup

	// loop-confined state
	slots     []*slotState
	leases    map[int]*lease
	queue     []*task
	nextLease int
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
		submit:      make(chan *task),
		events:      make(chan event, 64),
		done:        make(chan struct{}),
		leases:      make(map[int]*lease),
	}
	for _, sl := range opt.Slots {
		c.slots = append(c.slots, &slotState{Slot: sl})
	}
	go c.loop()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// RunCell dispatches one cell and blocks until a worker (any worker, on
// any attempt) returns its payload, the cell fails cleanly or is
// quarantined, or ctx/the coordinator is done. The payload is the
// worker's JSON result, byte-identical to a local run's marshaled cell.
func (c *Coordinator) RunCell(ctx context.Context, spec CellSpec) (json.RawMessage, error) {
	t := &task{spec: spec, res: make(chan taskResult, 1)}
	select {
	case c.submit <- t:
	case <-c.ctx.Done():
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case r := <-t.res:
		return r.payload, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close shuts the coordinator down: pending cells fail with ErrClosed
// and every attempt in flight is killed and reaped.
func (c *Coordinator) Close() {
	c.cancel()
	<-c.done
	c.attempts.Wait()
}

// loop is the scheduler: it owns slots, leases, and the queue.
func (c *Coordinator) loop() {
	defer close(c.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		c.expireLeases(now)
		c.dispatch(now)
		c.failIfStranded()
		timer.Reset(c.nextWake(now))
		select {
		case t := <-c.submit:
			c.queue = append(c.queue, t)
		case ev := <-c.events:
			c.handleEvent(ev)
		case <-timer.C:
		case <-c.ctx.Done():
			c.shutdown()
			return
		}
	}
}

// shutdown fails everything in flight; cancelling c.ctx has already
// stopped every attempt.
func (c *Coordinator) shutdown() {
	for _, l := range c.leases {
		l.t.resolve(nil, ErrClosed)
	}
	for _, t := range c.queue {
		t.resolve(nil, ErrClosed)
	}
	c.queue = nil
}

// expireLeases kills attempts whose heartbeats stopped and requeues
// their cells.
func (c *Coordinator) expireLeases(now time.Time) {
	for _, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		cause := fmt.Sprintf("lease expired: no heartbeat from %s for %v", c.workerName(l), c.opt.LeaseTimeout)
		c.logf("dispatch: %s; killing worker and reassigning %s", cause, l.t.spec.Key())
		c.fail(l, now, cause, true)
	}
}

// dispatch starts an attempt of the first ready cell on every idle
// slot.
func (c *Coordinator) dispatch(now time.Time) {
	for i, s := range c.slots {
		if s.retired || s.lease != nil || now.Before(s.readyAt) {
			continue
		}
		ti := -1
		for qi, t := range c.queue {
			if !now.Before(t.notBefore) {
				ti = qi
				break
			}
		}
		if ti < 0 {
			return
		}
		t := c.queue[ti]
		c.queue = append(c.queue[:ti], c.queue[ti+1:]...)
		c.nextLease++
		actx, stop := context.WithCancel(c.ctx)
		l := &lease{id: c.nextLease, t: t, slot: i, deadline: now.Add(c.opt.LeaseTimeout), stop: stop}
		c.leases[l.id] = l
		s.lease = l
		c.logf("dispatch: leased %s to worker %d (%s, lease %d)", t.spec.Key(), l.id, s.Name, l.id)
		c.attempts.Add(1)
		go c.attempt(actx, l.id, s.Open, t.spec)
	}
}

// attempt opens one attempt's stream and forwards its lines to the loop
// until the res or err line, an unparsable line, or the end of the
// stream. It is the only reader of protocol lines.
func (c *Coordinator) attempt(ctx context.Context, id int, open Transport, spec CellSpec) {
	defer c.attempts.Done()
	send := func(m Message) {
		select {
		case c.events <- event{lease: id, msg: m}:
		case <-c.ctx.Done():
		}
	}
	rc, err := open(ctx, spec, id)
	if err != nil {
		var ce *cellError
		if errors.As(err, &ce) {
			send(Message{Type: MsgError, Error: ce.msg})
		} else {
			send(Message{Type: msgRejected, Error: err.Error()})
		}
		return
	}
	// Close may wait until the loop, having read the last event, stops
	// the attempt: a worker still running after its last line is killed.
	defer rc.Close()
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		m, err := decodeLine(line)
		if err != nil {
			send(Message{Type: msgMalformed, Error: err.Error()})
			return
		}
		send(m)
		if m.Type == MsgResult || m.Type == MsgError {
			return
		}
	}
	cause := "stream ended"
	if err := sc.Err(); err != nil {
		cause = err.Error()
	}
	send(Message{Type: msgEnded, Error: cause})
}

// workerName names a lease's worker for logs.
func (c *Coordinator) workerName(l *lease) string {
	return fmt.Sprintf("worker %d (%s)", l.id, c.slots[l.slot].Name)
}

// handleEvent processes one line of an attempt's stream.
func (c *Coordinator) handleEvent(ev event) {
	l, ok := c.leases[ev.lease]
	if !ok {
		return // stale: the lease already expired or completed
	}
	now := time.Now()
	key := l.t.spec.Key()
	switch ev.msg.Type {
	case MsgHello:
		if ev.msg.Version != ProtocolVersion {
			c.reject(l, now, fmt.Sprintf("it speaks protocol %d, want %d", ev.msg.Version, ProtocolVersion))
		}
	case MsgHeartbeat:
		l.deadline = now.Add(c.opt.LeaseTimeout)
	case MsgResult:
		if len(ev.msg.Payload) == 0 || !json.Valid(ev.msg.Payload) {
			c.poison(l, now, fmt.Sprintf("poisoned payload for %s", key))
			return
		}
		c.complete(l, ev.msg.Payload, nil)
	case MsgError:
		// A clean cell failure: the worker is healthy (it already spent
		// its in-process retry budget); the error is the cell's outcome.
		c.complete(l, nil, errors.New(ev.msg.Error))
	case msgMalformed:
		c.poison(l, now, fmt.Sprintf("unparsable worker output: %s", ev.msg.Error))
	case msgEnded:
		cause := fmt.Sprintf("worker died mid-cell (%s: %s)", key, ev.msg.Error)
		c.logf("dispatch: %s on %s; reassigning", cause, c.workerName(l))
		c.fail(l, now, cause, true)
	case msgRejected:
		c.reject(l, now, ev.msg.Error)
	default:
		c.poison(l, now, fmt.Sprintf("unexpected %q message", ev.msg.Type))
	}
}

// detach ends a lease: it leaves the table and its slot, and its
// attempt is stopped.
func (c *Coordinator) detach(l *lease) *slotState {
	l.stop()
	delete(c.leases, l.id)
	s := c.slots[l.slot]
	s.lease = nil
	return s
}

// complete resolves a lease's cell with the attempt's outcome; the slot
// served, so its strikes reset.
func (c *Coordinator) complete(l *lease, payload json.RawMessage, err error) {
	c.detach(l).strikes = 0
	l.t.resolve(payload, err)
}

// fail ends a lease whose attempt went wrong: the slot takes a strike,
// and the cell is charged a death (charge) or requeued at the front
// uncharged.
func (c *Coordinator) fail(l *lease, now time.Time, cause string, charge bool) {
	c.detach(l).strike(c, now)
	if charge {
		c.requeueDeath(l.t, cause, now)
	} else {
		c.queue = append([]*task{l.t}, c.queue...)
	}
}

// poison handles an attempt that violated the protocol or returned
// garbage: the cell is charged a death and requeued, the worker killed.
func (c *Coordinator) poison(l *lease, now time.Time, cause string) {
	c.logf("dispatch: %s from %s; killing and reassigning", cause, c.workerName(l))
	c.fail(l, now, cause, true)
}

// reject handles an attempt that could not serve the cell through no
// fault of the cell (it never started, or the worker speaks another
// protocol version): the cell is requeued uncharged, the slot backs
// off.
func (c *Coordinator) reject(l *lease, now time.Time, cause string) {
	c.logf("dispatch: %s rejected %s (%s); requeueing, backing the slot off", c.workerName(l), l.t.spec.Key(), cause)
	c.fail(l, now, cause, false)
}

// strike records one consecutive failure on the slot and delays (or
// retires) it.
func (s *slotState) strike(c *Coordinator, now time.Time) {
	s.strikes++
	if s.strikes >= c.maxStrikes {
		s.retired = true
		c.logf("dispatch: retiring worker slot %s after %d consecutive failures", s.Name, s.strikes)
		return
	}
	// Try again promptly after a first failure, with doubling delay for
	// repeat offenders so a crash-looping slot does not spin.
	delay := time.Duration(0)
	if s.strikes > 1 {
		delay = min(c.backoffBase<<(s.strikes-2), c.maxBackoff)
	}
	s.readyAt = now.Add(delay)
}

// requeueDeath charges one worker death to the cell and requeues it
// under doubling-plus-jitter backoff, or quarantines it once the crash
// budget is spent.
func (c *Coordinator) requeueDeath(t *task, cause string, now time.Time) {
	t.deaths++
	t.cause = cause
	if t.deaths >= c.opt.CrashBudget {
		c.logf("dispatch: quarantining %s after %d worker deaths (last: %s)", t.spec.Key(), t.deaths, cause)
		t.resolve(nil, &QuarantineError{Cell: t.spec.Key(), Deaths: t.deaths, Cause: cause})
		return
	}
	delay := min(c.backoffBase<<(t.deaths-1), c.maxBackoff)
	delay += jitter(t.spec.Seed, t.spec.Key(), t.deaths, delay)
	t.notBefore = now.Add(delay)
	c.queue = append(c.queue, t)
	c.logf("dispatch: requeued %s (death %d/%d, backoff %v)", t.spec.Key(), t.deaths, c.opt.CrashBudget, delay.Round(time.Millisecond))
}

// failIfStranded fails every queued cell once no slot can ever serve
// again — graceful degradation beats a sweep that never returns.
func (c *Coordinator) failIfStranded() {
	for _, s := range c.slots {
		if !s.retired {
			return
		}
	}
	for _, t := range c.queue {
		t.resolve(nil, fmt.Errorf("%w (cell %s)", ErrNoWorkers, t.spec.Key()))
	}
	c.queue = nil
}

// nextWake computes how long the loop may sleep: until the earliest
// lease deadline, backoff expiry, or slot strike delay.
func (c *Coordinator) nextWake(now time.Time) time.Duration {
	const idle = time.Hour
	next := now.Add(idle)
	for _, l := range c.leases {
		if l.deadline.Before(next) {
			next = l.deadline
		}
	}
	for _, t := range c.queue {
		if t.notBefore.After(now) && t.notBefore.Before(next) {
			next = t.notBefore
		}
	}
	for _, s := range c.slots {
		if !s.retired && s.lease == nil && s.readyAt.After(now) && s.readyAt.Before(next) {
			next = s.readyAt
		}
	}
	d := next.Sub(now)
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
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
