// Package server implements splitlockd's daemon core: a job manager
// with admission control, a content-addressed result cache with
// singleflight coalescing, a shared solver pool, and the HTTP/JSON API
// that exposes lock/verify/attack jobs as long-running work with
// streamed progress events. With a state directory, each job's record
// is journaled in its own file, replaced only when that record
// changes, so a restarted daemon requeues unfinished jobs. Table I/II
// sweeps run on a daemon one benchmark×layer cell at a time: a
// `tables -connect` coordinator leases cells to POST /v1/cells, which
// computes them through the same internal/flow entry point as a
// single-process run, so the sweep's manifest and printed tables are
// byte-identical to a local run.
package server

import (
	"context"
	"encoding/json"
	"sync"
)

// CacheOutcome records how a job's result was obtained.
type CacheOutcome string

// Cache outcomes, reported on job records so clients (and the CI smoke
// test) can assert cache behavior.
const (
	// CacheMiss: this job computed the result.
	CacheMiss CacheOutcome = "miss"
	// CacheHit: the result was already cached when the job looked.
	CacheHit CacheOutcome = "hit"
	// CacheCoalesced: an identical job was already computing; this job
	// waited for that leader's result instead of duplicating the work
	// (singleflight).
	CacheCoalesced CacheOutcome = "coalesced"
	// CacheNone: no outcome — the job failed or was interrupted.
	CacheNone CacheOutcome = ""
)

// cacheEntry is one in-flight or completed computation. done is closed
// exactly once, after which data/err are immutable.
type cacheEntry struct {
	done chan struct{}
	data json.RawMessage
	err  error
}

// Cache is a bounded content-addressed result cache with singleflight
// semantics: concurrent Do calls for the same key coalesce onto one
// computation, and completed results are served to later calls
// byte-identically. Keys are the flow job cache keys (strashed-graph
// fingerprint plus result-affecting options), so "identical job" means
// identical problem, not identical request text. The manager wraps
// every job in it; perfbench's traced daemon-mix replay does the same.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	order   []string // completed keys, oldest first, for eviction
}

// NewCache returns a cache bounded to max completed entries (max <= 0
// picks 128). In-flight computations do not count against the bound and
// are never evicted.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 128
	}
	return &Cache{max: max, entries: make(map[string]*cacheEntry)}
}

// Len returns the number of completed cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// Do returns the cached result for key, waiting on an in-flight
// computation of the same key if there is one, and otherwise computing
// it via compute. A failed leader does not poison the key: one of the
// waiters is promoted to compute in its place (the retry loop), so a
// transient failure never turns into a cached error. ctx cancels only
// this caller's wait (and its own compute run); it does not cancel a
// leader other callers wait on.
func (c *Cache) Do(ctx context.Context, key string, compute func() (json.RawMessage, error)) (json.RawMessage, CacheOutcome, error) {
	waited := false
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			completed := false
			select {
			case <-e.done:
				completed = true
			default:
			}
			if !completed {
				waited = true
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, CacheNone, ctx.Err()
				}
			}
			if e.err == nil {
				if waited {
					return e.data, CacheCoalesced, nil
				}
				return e.data, CacheHit, nil
			}
			// The leader failed. Remove its entry (unless a later call
			// already replaced it) and loop: this caller is promoted to
			// leader and computes.
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			continue
		}
		e := &cacheEntry{done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		data, err := compute()
		e.data, e.err = data, err
		close(e.done)
		if err != nil {
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			return nil, CacheMiss, err
		}
		c.mu.Lock()
		c.order = append(c.order, key)
		for len(c.order) > c.max {
			old := c.order[0]
			c.order = c.order[1:]
			// Only evict the completed entry we recorded; a newer
			// in-flight entry under the same key stays.
			if oe, ok := c.entries[old]; ok && oe.err == nil && isDone(oe) {
				delete(c.entries, old)
			}
		}
		c.mu.Unlock()
		return data, CacheMiss, nil
	}
}

func isDone(e *cacheEntry) bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}
