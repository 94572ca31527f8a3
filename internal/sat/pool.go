package sat

import "runtime"

// Pool is a daemon's portfolio-width cap: a job builds at most Total()
// members, whatever width its spec names. Every member mirrors the
// whole instance, so with the daemon's job-concurrency bound the cap
// bounds the solver members alive at once. It admits nothing and
// queues nothing: members of one portfolio time-slice the job's own
// goroutine, so a wider job uses no more cores than a narrow one.
type Pool struct {
	total int
}

// NewPool returns a cap of the given number of members; slots <= 0
// picks GOMAXPROCS.
func NewPool(slots int) *Pool {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	return &Pool{total: slots}
}

// Total returns the widest portfolio a job may build.
func (p *Pool) Total() int { return p.total }
