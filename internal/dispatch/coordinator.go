package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Coordinator-internal pseudo-message types (never on the wire).
const (
	// msgMalformed marks unparsable worker output: the transport killed
	// the worker and the coordinator treats the attempt as poisoned.
	msgMalformed MsgType = "malformed"
	// msgRejected marks a pre-execution refusal (remote daemon busy or
	// unreachable): the cell is requeued without charging its crash
	// budget — the cell never ran, so it cannot have killed anything.
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

// Worker is one live worker as the coordinator sees it: a way to send
// assignments, a stream of its messages (closed when it dies), and a
// hard stop. Implementations: process workers over stdin/stdout
// (ProcSpawner), remote splitlockd workers over HTTP (RemoteSpawner),
// and in-memory pipes in tests.
type Worker interface {
	// Assign sends a lease. An error means the worker is unusable.
	Assign(Message) error
	// Messages returns the worker's incoming stream; the channel closes
	// when the worker dies (process exit, connection loss, Kill).
	Messages() <-chan Message
	// Kill hard-stops the worker. Idempotent.
	Kill()
	// String names the worker for logs.
	String() string
}

// SpawnFunc creates (or re-creates) the worker for one slot. id is a
// fleet-unique worker identity (it advances on every respawn, so fault
// sites targeting "#2" hit the original worker 2 and never its
// replacement).
type SpawnFunc func(ctx context.Context, id int) (Worker, error)

// Options configures a Coordinator.
type Options struct {
	// Spawners is one entry per worker slot; a slot's worker is respawned
	// through its own SpawnFunc after every death.
	Spawners []SpawnFunc
	// LeaseTimeout expires a lease whose worker has not heartbeat for
	// this long (default 15s; workers beat every 500ms by default, so the
	// default tolerates ~30 missed beats).
	LeaseTimeout time.Duration
	// CrashBudget is the per-cell worker-death budget: the deaths'th
	// death quarantines the cell (default 3).
	CrashBudget int
	// Logf, when non-nil, receives dispatch lifecycle events (spawns,
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
	// jitter; a slot's respawn delay doubles from it after its second
	// strike.
	backoffBase = 250 * time.Millisecond
	// maxBackoff caps the doubling.
	maxBackoff = 15 * time.Second
	// maxStrikes retires a slot after this many consecutive failures
	// (spawn errors or deaths with no completed cell in between); a
	// retired slot is never respawned. With every slot retired, pending
	// cells fail with ErrNoWorkers instead of waiting forever.
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

// lease is one outstanding assignment.
type lease struct {
	id       uint64
	t        *task
	slot     int
	deadline time.Time
}

// slotState tracks one worker slot across respawns.
type slotState struct {
	spawn     SpawnFunc
	w         Worker
	wid       int  // current worker identity (0 = none)
	alive     bool // w is usable
	spawning  bool
	retired   bool
	respawnAt time.Time
	strikes   int // consecutive failures; reset on a completed cell
	lease     *lease
}

// wEvent is one worker-originated event entering the loop.
type wEvent struct {
	slot   int
	wid    int // worker identity the event came from (stale ones are dropped)
	msg    Message
	closed bool
}

type spawnResult struct {
	slot int
	wid  int
	w    Worker
	err  error
}

// Coordinator owns the lease table and the reassignment queue. All
// state is confined to the loop goroutine; RunCell and worker pumps
// communicate over channels.
type Coordinator struct {
	opt    Options
	ctx    context.Context
	cancel context.CancelFunc

	// The reassignment and retirement policy: backoffBase, maxBackoff
	// and maxStrikes outside tests.
	backoffBase, maxBackoff time.Duration
	maxStrikes              int

	submit  chan *task
	events  chan wEvent
	spawned chan spawnResult
	done    chan struct{}

	// loop-confined state
	slots     []*slotState
	leases    map[uint64]*lease
	queue     []*task
	nextLease uint64
	nextWID   int
}

// New starts a coordinator over the given worker slots. Close must be
// called to reap workers.
func New(opt Options) (*Coordinator, error) {
	return newCoordinator(opt, backoffBase, maxBackoff, maxStrikes)
}

// newCoordinator is New with the reassignment and retirement policy as
// arguments, so tests can shorten it.
func newCoordinator(opt Options, base, ceiling time.Duration, strikes int) (*Coordinator, error) {
	opt = opt.withDefaults()
	if len(opt.Spawners) == 0 {
		return nil, errors.New("dispatch: coordinator needs at least one worker spawner")
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
		events:      make(chan wEvent, 64),
		spawned:     make(chan spawnResult),
		done:        make(chan struct{}),
		leases:      make(map[uint64]*lease),
	}
	for _, sp := range opt.Spawners {
		c.slots = append(c.slots, &slotState{spawn: sp})
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
// and every worker is killed.
func (c *Coordinator) Close() {
	c.cancel()
	<-c.done
}

// loop is the scheduler: it owns slots, leases, and the queue.
func (c *Coordinator) loop() {
	defer close(c.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		c.expireLeases(now)
		c.spawnDue(now)
		c.dispatch(now)
		c.failIfStranded()
		timer.Reset(c.nextWake(now))
		select {
		case t := <-c.submit:
			c.queue = append(c.queue, t)
		case ev := <-c.events:
			c.handleEvent(ev)
		case sr := <-c.spawned:
			c.handleSpawned(sr)
		case <-timer.C:
		case <-c.ctx.Done():
			c.shutdown()
			return
		}
	}
}

// shutdown kills every worker and fails everything in flight.
func (c *Coordinator) shutdown() {
	for _, s := range c.slots {
		if s.w != nil {
			s.w.Kill()
		}
		if s.lease != nil {
			s.lease.t.resolve(nil, ErrClosed)
			s.lease = nil
		}
	}
	for _, t := range c.queue {
		t.resolve(nil, ErrClosed)
	}
	c.queue = nil
}

// expireLeases kills workers whose heartbeats stopped and requeues
// their cells.
func (c *Coordinator) expireLeases(now time.Time) {
	for _, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		s := c.slots[l.slot]
		cause := fmt.Sprintf("lease expired: no heartbeat from %s for %v", c.slotName(l.slot), c.opt.LeaseTimeout)
		c.logf("dispatch: %s; killing worker and reassigning %s", cause, l.t.spec.Key())
		c.detachLease(l)
		c.killSlot(s, now)
		c.requeueDeath(l.t, cause, now)
	}
}

// detachLease removes l from the lease table and its slot.
func (c *Coordinator) detachLease(l *lease) {
	delete(c.leases, l.id)
	if s := c.slots[l.slot]; s.lease == l {
		s.lease = nil
	}
}

// killSlot hard-stops a slot's worker and schedules its respawn. The
// death is a strike; the slot retires past maxStrikes.
func (c *Coordinator) killSlot(s *slotState, now time.Time) {
	if s.w != nil {
		s.w.Kill()
	}
	s.w, s.alive, s.wid = nil, false, 0
	s.strike(c, now)
}

// strike records one consecutive failure on the slot and schedules (or
// retires) it.
func (s *slotState) strike(c *Coordinator, now time.Time) {
	s.strikes++
	if s.strikes >= c.maxStrikes {
		if !s.retired {
			s.retired = true
			c.logf("dispatch: retiring worker slot after %d consecutive failures", s.strikes)
		}
		return
	}
	// Respawn promptly after a first failure, with doubling delay for
	// repeat offenders so a crash-looping spawn does not spin.
	delay := time.Duration(0)
	if s.strikes > 1 {
		delay = min(c.backoffBase<<(s.strikes-2), c.maxBackoff)
	}
	s.respawnAt = now.Add(delay)
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

// requeueFront puts a cell back without charging its budget (the worker
// was unusable before the cell ran).
func (c *Coordinator) requeueFront(t *task) {
	c.queue = append([]*task{t}, c.queue...)
}

// spawnDue launches workers for empty, unretired slots whose respawn
// time has come.
func (c *Coordinator) spawnDue(now time.Time) {
	for i, s := range c.slots {
		if s.retired || s.spawning || s.alive || now.Before(s.respawnAt) {
			continue
		}
		s.spawning = true
		c.nextWID++
		wid := c.nextWID
		slot := i
		go func(sp SpawnFunc) {
			w, err := sp(c.ctx, wid)
			select {
			case c.spawned <- spawnResult{slot: slot, wid: wid, w: w, err: err}:
			case <-c.ctx.Done():
				if w != nil {
					w.Kill()
				}
			}
		}(s.spawn)
	}
}

func (c *Coordinator) handleSpawned(sr spawnResult) {
	s := c.slots[sr.slot]
	s.spawning = false
	if sr.err != nil {
		c.logf("dispatch: spawning worker %d failed: %v", sr.wid, sr.err)
		s.strike(c, time.Now())
		return
	}
	s.w, s.wid, s.alive = sr.w, sr.wid, true
	c.logf("dispatch: worker %d up (%s)", sr.wid, sr.w)
	go c.pump(sr.slot, sr.wid, sr.w)
}

// pump forwards one worker's messages into the loop and reports its
// death.
func (c *Coordinator) pump(slot, wid int, w Worker) {
	for m := range w.Messages() {
		select {
		case c.events <- wEvent{slot: slot, wid: wid, msg: m}:
		case <-c.ctx.Done():
			return
		}
	}
	select {
	case c.events <- wEvent{slot: slot, wid: wid, closed: true}:
	case <-c.ctx.Done():
	}
}

// dispatch assigns ready cells to idle workers.
func (c *Coordinator) dispatch(now time.Time) {
	for _, s := range c.slots {
		if !s.alive || s.lease != nil {
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
		l := &lease{id: c.nextLease, t: t, slot: c.slotIndex(s), deadline: now.Add(c.opt.LeaseTimeout)}
		if err := s.w.Assign(Message{Type: MsgAssign, ID: l.id, Cell: &t.spec}); err != nil {
			// The worker died before the cell could start: not the cell's
			// fault. Its pump will report the close; kill now to be sure.
			c.logf("dispatch: assigning %s to worker %d failed (%v); requeueing", t.spec.Key(), s.wid, err)
			c.killSlot(s, now)
			c.requeueFront(t)
			continue
		}
		c.leases[l.id] = l
		s.lease = l
		c.logf("dispatch: leased %s to worker %d (lease %d)", t.spec.Key(), s.wid, l.id)
	}
}

func (c *Coordinator) slotIndex(s *slotState) int {
	for i, x := range c.slots {
		if x == s {
			return i
		}
	}
	return -1
}

func (c *Coordinator) slotName(slot int) string {
	s := c.slots[slot]
	if s.w != nil {
		return fmt.Sprintf("worker %d (%s)", s.wid, s.w)
	}
	return fmt.Sprintf("worker %d", s.wid)
}

// handleEvent processes one worker message or death.
func (c *Coordinator) handleEvent(ev wEvent) {
	s := c.slots[ev.slot]
	if ev.wid != s.wid {
		return // stale: a previous incarnation of this slot
	}
	now := time.Now()
	if ev.closed {
		l := s.lease
		s.lease = nil
		s.w, s.alive, s.wid = nil, false, 0
		s.strike(c, now)
		if l != nil {
			delete(c.leases, l.id)
			cause := fmt.Sprintf("worker died mid-cell (%s)", l.t.spec.Key())
			c.logf("dispatch: %s; reassigning", cause)
			c.requeueDeath(l.t, cause, now)
		} else {
			c.logf("dispatch: idle worker died; respawning")
		}
		return
	}
	switch ev.msg.Type {
	case MsgHello:
		if ev.msg.Version != ProtocolVersion {
			c.logf("dispatch: worker %d speaks protocol %d, want %d; killing", s.wid, ev.msg.Version, ProtocolVersion)
			c.poisonSlot(s, now, "protocol version mismatch")
		}
	case MsgHeartbeat:
		if l, ok := c.leases[ev.msg.ID]; ok && l.slot == ev.slot {
			l.deadline = now.Add(c.opt.LeaseTimeout)
		}
	case MsgResult:
		l, ok := c.leases[ev.msg.ID]
		if !ok || l.slot != ev.slot {
			return // late result for an expired lease: already reassigned
		}
		if len(ev.msg.Payload) == 0 || !json.Valid(ev.msg.Payload) {
			c.poisonSlot(s, now, fmt.Sprintf("poisoned payload for %s", l.t.spec.Key()))
			return
		}
		c.detachLease(l)
		s.strikes = 0
		l.t.resolve(ev.msg.Payload, nil)
	case MsgError:
		l, ok := c.leases[ev.msg.ID]
		if !ok || l.slot != ev.slot {
			return
		}
		// A clean cell failure: the worker is healthy (it already spent
		// its in-process retry budget); the error is the cell's outcome.
		c.detachLease(l)
		s.strikes = 0
		l.t.resolve(nil, errors.New(ev.msg.Error))
	case msgMalformed:
		c.poisonSlot(s, now, fmt.Sprintf("unparsable worker output: %s", ev.msg.Error))
	case msgRejected:
		if l, ok := c.leases[ev.msg.ID]; ok && l.slot == ev.slot {
			c.detachLease(l)
			c.requeueFront(l.t)
		}
		c.logf("dispatch: worker %d rejected work (%s); backing off", s.wid, ev.msg.Error)
		if s.w != nil {
			s.w.Kill()
		}
		s.w, s.alive, s.wid = nil, false, 0
		s.strike(c, now)
	default:
		c.poisonSlot(s, now, fmt.Sprintf("unexpected %q message", ev.msg.Type))
	}
}

// poisonSlot handles a worker that violated the protocol or returned
// garbage: its lease (if any) is charged a death and requeued, and the
// worker is killed and respawned.
func (c *Coordinator) poisonSlot(s *slotState, now time.Time, cause string) {
	l := s.lease
	c.logf("dispatch: %s from worker %d; killing and respawning", cause, s.wid)
	if l != nil {
		c.detachLease(l)
	}
	c.killSlot(s, now)
	if l != nil {
		c.requeueDeath(l.t, cause, now)
	}
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
// lease deadline, backoff expiry, or respawn time.
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
		if !s.retired && !s.spawning && !s.alive && s.respawnAt.Before(next) {
			next = s.respawnAt
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
