// Command splitlockd serves the lock/verify/attack/table pipeline as a
// long-running daemon instead of one-shot CLI invocations:
//
//	splitlockd -addr :8080 -state /var/lib/splitlockd
//
// Jobs are submitted and observed over HTTP/JSON:
//
//	POST /v1/jobs             submit (202 + job record)
//	GET  /v1/jobs             list all jobs
//	GET  /v1/jobs/{id}        poll one job
//	GET  /v1/jobs/{id}/events stream progress (NDJSON)
//	POST /v1/cells            run one table cell (NDJSON dispatch stream)
//	GET  /v1/healthz          liveness + counters
//
// The /v1/cells endpoint makes the daemon a remote worker for a
// `tables -connect host:port` coordinator: cells are admitted under
// their own concurrency bound (-maxcells) and stream heartbeats while
// queued and while computing, so the coordinator's lease stays alive
// exactly as long as the daemon is.
//
// Lock, verify and attack jobs are cached by the canonical
// strashed-graph fingerprint of the locked circuit, so resubmitting an
// identical problem returns the identical payload without re-solving;
// concurrent identical submissions coalesce onto one computation.
// Admission control bounds concurrent jobs (-jobs) and the waiting
// queue (-queue, 503 beyond it); all jobs share one solver pool
// (-solverslots), and a job waits until its whole portfolio width —
// clamped to the pool size — is free, so its payload never depends on
// load. SIGINT/SIGTERM drains gracefully: running table jobs
// checkpoint their finished cells and are requeued on the next start,
// resuming byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		state        = flag.String("state", "", "state directory for the job journal and table checkpoints (empty = in-memory, no restart resume)")
		jobs         = flag.Int("jobs", 2, "max concurrently running jobs")
		queue        = flag.Int("queue", 64, "max queued jobs before submissions get 503")
		solverSlots  = flag.Int("solverslots", 0, "shared solver pool slots (0 = GOMAXPROCS)")
		cacheEntries = flag.Int("cache", 128, "result cache entries")
		jobTimeout   = flag.Duration("jobtimeout", 0, "per-job deadline (0 = none)")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "max wait for running jobs to checkpoint on shutdown")
		maxCells     = flag.Int("maxcells", 0, "max concurrently running dispatched table cells (0 = same as -jobs)")
	)
	flag.Parse()
	if err := run(*addr, server.ManagerOptions{
		StateDir:     *state,
		MaxJobs:      *jobs,
		QueueLimit:   *queue,
		SolverSlots:  *solverSlots,
		CacheEntries: *cacheEntries,
		JobTimeout:   *jobTimeout,
		MaxCells:     *maxCells,
	}, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "splitlockd:", err)
		os.Exit(1)
	}
}

func run(addr string, opt server.ManagerOptions, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mgr, err := server.NewManager(opt)
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: addr, Handler: server.NewServer(mgr)}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "splitlockd: listening on %s (state %q, %d jobs, %d queue)\n",
			addr, opt.StateDir, opt.MaxJobs, opt.QueueLimit)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		_ = mgr.Drain(drainTimeout)
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "splitlockd: draining (running jobs checkpoint and resume on restart)")
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if err := mgr.Drain(drainTimeout); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "splitlockd: drained cleanly")
	return nil
}
