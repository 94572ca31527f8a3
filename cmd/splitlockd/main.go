// Command splitlockd serves the lock/verify/attack pipeline, and Table
// I/II cells, as a long-running daemon instead of one-shot CLI
// invocations:
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
// `tables -connect host:port` coordinator, the one way to run a Table
// I/II sweep on daemons: a coordinator gives each daemon one worker
// slot, cells are admitted under their own concurrency bound (as many
// as -jobs, separately from jobs) and stream heartbeats while queued and
// while computing, so the coordinator's lease stays alive exactly as
// long as the daemon is. The coordinator checkpoints finished cells in
// its own -manifest and resumes with -resume.
//
// Lock, verify and attack jobs are cached by their spec after defaults,
// so resubmitting an identical spec returns the identical payload
// without loading, locking or solving; concurrent identical
// submissions coalesce onto one computation.
// Admission control bounds concurrent jobs (-jobs) and the waiting
// queue (-queue, 503 beyond it). -solverslots caps the portfolio width
// of each job: a wider request is clamped, never queued, so its payload
// never depends on load; a /v1/cells cell always runs one solver. SIGINT/SIGTERM drains gracefully: admission stops, running
// jobs are cancelled (a paper-scale lock stops between modules),
// journaled as interrupted (each job has its own file under
// -state/jobs/, replaced only when its record changes; the newest 256
// finished records are kept, older ones evicted) and requeued on
// the next start, where they run again to a byte-identical payload,
// and running /v1/cells cells are cancelled, so their streams end
// without a result line (the coordinator counts the daemon as a dead
// worker and reassigns the cell). Only then does the HTTP server shut
// down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
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
		state        = flag.String("state", "", "state directory for the job journal, one jobs/<id>.json file per job (empty = in-memory, no requeue on restart)")
		jobs         = flag.Int("jobs", 2, "max concurrently running jobs, and separately max running /v1/cells cells")
		queue        = flag.Int("queue", 64, "max queued jobs before submissions get 503")
		solverSlots  = flag.Int("solverslots", 0, "max SAT portfolio members per job; wider requests are clamped (0 = GOMAXPROCS)")
		cacheEntries = flag.Int("cache", 128, "result cache entries")
		jobTimeout   = flag.Duration("jobtimeout", 0, "per-job deadline (0 = none)")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "max wait for running jobs and cells to stop on shutdown")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err == nil {
		err = run(ctx, ln, server.ManagerOptions{
			StateDir:     *state,
			MaxJobs:      *jobs,
			QueueLimit:   *queue,
			SolverSlots:  *solverSlots,
			CacheEntries: *cacheEntries,
			JobTimeout:   *jobTimeout,
		}, *drainTimeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitlockd:", err)
		os.Exit(1)
	}
}

// run serves the daemon on ln until ctx is done, then drains: the
// manager stops admission and cancels running jobs and cells first, so
// open cell streams end without a result, and only then does the HTTP
// server wait for the remaining handlers to return.
func run(ctx context.Context, ln net.Listener, opt server.ManagerOptions, drainTimeout time.Duration) error {
	mgr, err := server.NewManager(opt)
	if err != nil {
		ln.Close()
		return err
	}
	srv := &http.Server{Handler: server.NewServer(mgr)}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "splitlockd: listening on %s (state %q, %d jobs, %d queue)\n",
			ln.Addr(), opt.StateDir, opt.MaxJobs, opt.QueueLimit)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		_ = mgr.Drain(drainTimeout)
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "splitlockd: draining (running jobs are requeued on restart)")
	drainErr := mgr.Drain(drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	_ = srv.Shutdown(shutCtx)
	if drainErr != nil {
		return drainErr
	}
	fmt.Fprintln(os.Stderr, "splitlockd: drained cleanly")
	return nil
}
