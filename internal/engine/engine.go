// Package engine provides the shared parallel batch runner behind the
// pattern-simulation hot paths (internal/sim's HD/OER comparison and
// switching-activity estimation). It shards a work range across a
// bounded worker pool with per-worker state, so callers keep one net
// buffer and one stimulus generator per worker instead of per item.
// Items are opaque to it: how many patterns an item covers, and so how
// large a batch should be, is the caller's choice.
//
// It is also the one scheduler of the experiment grids: flow runs every
// Table I/II cell and every Table III / Fig. 5 row through Run with
// Grain 1, so cells are claimed in grid order by a pool whose width the
// caller derives (1 for a serial run, on the calling goroutine).
//
// Determinism contract: batch boundaries depend only on the item count
// and the grain — never on the worker count — so a kernel that derives
// its stimulus from Batch.Start (see sim.NewRandAt) produces results
// that are bit-identical for any Workers setting, including the serial
// Workers=1 path. Aggregates merged commutatively (integer sums, OR of
// booleans) are therefore reproducible everywhere from a laptop to a
// 128-core host.
//
// Fault model: a kernel or state-constructor panic on a worker is
// recovered, wrapped in *PanicError with the worker goroutine's stack,
// and re-raised on the goroutine that called Run — so callers isolate a
// poisoned batch with an ordinary deferred recover at the job boundary
// instead of losing the process. A stop flag (Options.Stop, typically
// bridged from a context via WatchContext) makes Run return ErrStopped
// between batches.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Batch is a contiguous half-open range [Start, End) of work items.
type Batch struct{ Start, End int }

// Len returns the number of items in the batch.
func (b Batch) Len() int { return b.End - b.Start }

// DefaultGrain is the default number of items per batch. At 64-way
// bit-parallel simulation one item is one 64-pattern word, so the
// default batch covers 4096 patterns — large enough to amortize worker
// handoff, small enough to load-balance uneven kernels.
const DefaultGrain = 64

// ErrStopped is returned by Run when Options.Stop was observed set
// before all batches completed. The returned states are partial and
// must not be merged into results.
var ErrStopped = errors.New("engine: run stopped")

// PanicError wraps a panic recovered from a worker goroutine so it can
// cross the goroutine boundary with its original stack attached. Run
// re-panics with a *PanicError on the calling goroutine; job-level
// recovery (e.g. in flow) converts it to an error without losing the
// stack of the worker that actually faulted.
type PanicError struct {
	Value any    // the original panic value
	Stack []byte // stack of the panicking worker goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// AsPanicError extracts a *PanicError from a recovered panic value, if
// it is one.
func AsPanicError(v any) (*PanicError, bool) {
	pe, ok := v.(*PanicError)
	return pe, ok
}

// WatchContext bridges a context to the atomic stop flag convention
// used across engine and sat: the returned flag is set when ctx is
// done. The returned release function must be called (typically
// deferred) to deregister the watch; the flag remains valid — and set,
// if ctx was done — after release.
func WatchContext(ctx context.Context) (*atomic.Bool, func()) {
	var flag atomic.Bool
	if ctx == nil {
		return &flag, func() {}
	}
	stop := context.AfterFunc(ctx, func() { flag.Store(true) })
	return &flag, func() { stop() }
}

// Options tunes a batch run.
type Options struct {
	// Workers caps the worker pool. <= 0 means GOMAXPROCS; 1 runs the
	// whole range serially on the calling goroutine.
	Workers int
	// Grain is the number of items per batch (<= 0 means DefaultGrain).
	// Changing the grain changes batch boundaries and thus the stimulus
	// stream of kernels that seed per batch; keep it fixed when
	// reproducibility across configurations matters.
	Grain int
	// Stop, when non-nil and set, makes workers stop claiming batches;
	// Run then returns ErrStopped. Checked between batches, so stop
	// latency is one kernel call. Run never clears the flag.
	Stop *atomic.Bool
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) grain() int {
	if o.Grain > 0 {
		return o.Grain
	}
	return DefaultGrain
}

func (o Options) stopped() bool {
	return o.Stop != nil && o.Stop.Load()
}

// Workers resolves the effective worker count for n items under opt.
func Workers(n int, opt Options) int {
	w := opt.workers()
	batches := (n + opt.grain() - 1) / opt.grain()
	if batches < 1 {
		batches = 1
	}
	if w > batches {
		w = batches
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run partitions [0, n) into fixed-grain batches and processes them on
// a worker pool. newState is called once per worker (worker indices are
// dense from 0) and all newState calls complete before the first
// kernel call, so state constructors may read structures the kernels
// mutate. kernel is called for every batch, concurrently across
// workers but never concurrently on the same state. Run blocks until
// all batches complete and returns the per-worker states for the
// caller to merge.
//
// The error is non-nil only when Options.Stop cut the run short
// (ErrStopped); the states are then partial and must be discarded. A
// panic in newState or kernel is re-raised on the calling goroutine as
// a *PanicError carrying the faulting worker's stack; the remaining
// workers drain and exit first, so no goroutine outlives the call.
//
// Workers only ever read shared inputs, so callers must pre-build any
// lazily cached structures (topological orders, fanout lists, compiled
// evaluators) before calling Run.
func Run[S any](n int, opt Options, newState func(worker int) S, kernel func(s S, b Batch)) ([]S, error) {
	if n <= 0 {
		return nil, nil
	}
	if opt.stopped() {
		return nil, ErrStopped
	}
	grain := opt.grain()
	workers := Workers(n, opt)

	if workers == 1 {
		// Wrap serial-path panics the same way as worker panics, so job
		// boundaries see one panic shape regardless of worker count.
		defer func() {
			if v := recover(); v != nil {
				if _, ok := v.(*PanicError); ok {
					panic(v)
				}
				panic(&PanicError{Value: v, Stack: debug.Stack()})
			}
		}()
		s := newState(0)
		for start := 0; start < n; start += grain {
			if opt.stopped() {
				return []S{s}, ErrStopped
			}
			end := start + grain
			if end > n {
				end = n
			}
			kernel(s, Batch{start, end})
		}
		return []S{s}, nil
	}

	// Construct every state before launching any worker: newState may
	// read shared structures (e.g. clone a circuit) that an already
	// running kernel would be mutating.
	states := make([]S, workers)
	for w := 0; w < workers; w++ {
		states[w] = newState(w)
	}
	var (
		next       atomic.Int64
		wg         sync.WaitGroup
		abort      atomic.Bool // set on first worker panic
		stopped    atomic.Bool // set when a worker observed Stop with work left
		firstPanic atomic.Pointer[PanicError]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(s S) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					pe := &PanicError{Value: v, Stack: debug.Stack()}
					firstPanic.CompareAndSwap(nil, pe)
					abort.Store(true)
				}
			}()
			for {
				start := int(next.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				// Check after claiming: a claim that raced past the flag
				// is skipped here, so a stop with batches remaining is
				// always detected, and a stop that lands after the last
				// claim is not misreported.
				if abort.Load() {
					return
				}
				if opt.stopped() {
					stopped.Store(true)
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				kernel(s, Batch{start, end})
			}
		}(states[w])
	}
	wg.Wait()
	if pe := firstPanic.Load(); pe != nil {
		panic(pe)
	}
	if stopped.Load() {
		return states, ErrStopped
	}
	return states, nil
}
