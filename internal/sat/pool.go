package sat

import (
	"context"
	"runtime"
	"sync"
)

// Pool rations solver member slots across concurrent jobs: every
// portfolio member mirrors the whole instance, so a daemon bounds the
// total member count (and with it the solver memory and mirroring
// work) by making jobs Acquire a lease before building their
// portfolio. Admission is FIFO, and a grant is always the full request
// (capped at the pool total): a portfolio's member count shapes its
// models, so a job that received fewer members under load would
// compute a different payload than the same job run alone.
//
// Leases deliberately hand out *slots*, not solver instances: solvers
// and portfolios carry instance-specific clauses and have no reset
// surface, so reusing one across jobs would leak one job's formula into
// the next. The pool bounds concurrent search width; each job still
// builds its own fresh portfolio via Lease.NewPortfolio.
type Pool struct {
	mu      sync.Mutex
	total   int
	free    int
	waiters []*poolWaiter
}

type poolWaiter struct {
	want int
	got  chan struct{} // closed once the want slots are granted
}

// NewPool returns a pool of the given number of member slots; slots <= 0
// picks GOMAXPROCS.
func NewPool(slots int) *Pool {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Pool{total: slots, free: slots}
}

// Total returns the pool's slot capacity.
func (p *Pool) Total() int { return p.total }

// Free returns the currently unleased slot count.
func (p *Pool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free
}

// Acquire blocks until the pool can grant min(want, Total()) slots
// (FIFO with respect to other acquirers: a wide request at the head of
// the queue is not overtaken by narrower ones behind it) or ctx is
// done. want < 1 asks for one slot. The caller must Release the lease.
func (p *Pool) Acquire(ctx context.Context, want int) (*Lease, error) {
	want = min(max(want, 1), p.total)
	p.mu.Lock()
	if len(p.waiters) == 0 && p.free >= want {
		p.free -= want
		p.mu.Unlock()
		return &Lease{pool: p, slots: want}, nil
	}
	w := &poolWaiter{want: want, got: make(chan struct{})}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()
	select {
	case <-w.got:
		return &Lease{pool: p, slots: want}, nil
	case <-ctx.Done():
		p.mu.Lock()
		for i, x := range p.waiters {
			if x == w {
				p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
				// The head may have left: the next waiters may fit now.
				p.grantLocked()
				p.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		p.mu.Unlock()
		// A grant raced the cancellation: the slots are already ours,
		// hand them straight back.
		p.release(want)
		return nil, ctx.Err()
	}
}

// release returns n slots and hands them to queued waiters in FIFO
// order.
func (p *Pool) release(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free += n
	p.grantLocked()
}

// grantLocked grants queued waiters in FIFO order while the head's full
// request fits. Callers hold p.mu.
func (p *Pool) grantLocked() {
	for len(p.waiters) > 0 && p.free >= p.waiters[0].want {
		w := p.waiters[0]
		p.free -= w.want
		p.waiters = p.waiters[1:]
		close(w.got)
	}
}

// Lease is a grant of solver member slots. Release exactly once when
// the job's solving is done (idempotent, so a deferred Release after an
// explicit one is safe).
type Lease struct {
	pool     *Pool
	slots    int
	released bool
	mu       sync.Mutex
}

// Slots returns the number of member slots granted.
func (l *Lease) Slots() int { return l.slots }

// NewPortfolio builds a fresh portfolio sized to the lease: Workers is
// clamped to the granted slots (and defaults to all of them), so a job
// cannot out-size its admission grant.
func (l *Lease) NewPortfolio(opt PortfolioOptions) *Portfolio {
	if opt.Workers <= 0 || opt.Workers > l.slots {
		opt.Workers = l.slots
	}
	return NewPortfolio(opt)
}

// Release returns the lease's slots to the pool.
func (l *Lease) Release() {
	l.mu.Lock()
	done := l.released
	l.released = true
	l.mu.Unlock()
	if !done {
		l.pool.release(l.slots)
	}
}
