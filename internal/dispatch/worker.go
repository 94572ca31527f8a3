package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/faultpoint"
)

// Worker-side fault-injection sites. Every site is hit under its plain
// name, a per-worker variant ("<site>#<workerid>"), and — where a cell
// is in scope — a per-cell variant ("<site>@<bench>/M<layer>"), so a
// REPRO_FAULTPOINTS spec can target one attempt of a sweep or one cell
// of a grid. Every attempt gets a fresh worker id, so a "#<id>" site
// names exactly one attempt and a retry never re-fires it. The
// behavioral sites (drop/corrupt) fire on the `panic` action via
// faultpoint.Fired. The sites fire in every process that serves cells:
// `tables -worker` processes and splitlockd daemons answering POST
// /v1/cells, where the worker is anonymous, so only the plain and
// per-cell names fire.
var (
	fpCellStart = faultpoint.Describe("dispatch.worker.cell.start",
		"worker: before computing an assigned cell (also #<id>, @<cell>); stall here to hold a lease open")
	fpHeartbeat = faultpoint.Describe("dispatch.worker.heartbeat",
		"worker: each heartbeat tick (also #<id>); stall here to miss heartbeats and expire the lease")
	fpResult = faultpoint.Describe("dispatch.worker.result",
		"worker: before sending a completed cell's result (also #<id>, @<cell>); exit= here simulates a crash mid-cell")
	fpDropResult = faultpoint.Describe("dispatch.worker.drop-result",
		"worker: behavioral (arm with panic; also #<id>, @<cell>) — the computed result is discarded and the worker goes silent until killed")
	fpCorrupt = faultpoint.Describe("dispatch.worker.corrupt-payload",
		"worker: behavioral (arm with panic; also #<id>, @<cell>) — the result line is replaced with torn JSON")
)

// CellFunc computes one cell and returns its JSON payload. It must be
// deterministic in the spec's result-affecting fields: the coordinator
// relies on any worker, on any attempt, producing identical bytes.
type CellFunc func(ctx context.Context, spec CellSpec) (json.RawMessage, error)

// WorkerOptions configures ServeCell.
type WorkerOptions struct {
	// ID is the coordinator-assigned worker identity of this attempt
	// (used in hello and in per-worker fault-site names); 0 is
	// anonymous.
	ID int
	// Run computes cells.
	Run CellFunc
}

// ServeCell runs the worker half of the protocol for one attempt of one
// cell: hello, heartbeats while the cell computes, then exactly one res
// or err line. A cell failure travels as the err line; the returned
// error is for an unwritable out or a cancelled ctx, which ends the
// stream with no result line — the coordinator counts that as a dead
// worker.
func ServeCell(ctx context.Context, out io.Writer, spec CellSpec, opt WorkerOptions) error {
	return serveCell(ctx, out, spec, opt, heartbeatInterval)
}

// heartbeatInterval is the lease-renewal period while a cell runs. The
// coordinator's lease timeout should be a comfortable multiple of it.
const heartbeatInterval = 500 * time.Millisecond

// serveCell is ServeCell with heartbeats every hb.
func serveCell(ctx context.Context, out io.Writer, spec CellSpec, opt WorkerOptions, hb time.Duration) error {
	if opt.Run == nil {
		return fmt.Errorf("dispatch: a worker needs a CellFunc")
	}
	w := &workerConn{out: out, opt: opt, hb: hb}
	if err := w.send(Message{Type: MsgHello, Worker: opt.ID, Version: ProtocolVersion}); err != nil {
		return err
	}
	return w.runCell(ctx, spec)
}

// workerConn serializes protocol writes: the heartbeat goroutine and the
// cell goroutine share one line stream.
type workerConn struct {
	mu  sync.Mutex
	out io.Writer
	opt WorkerOptions
	hb  time.Duration
}

func (w *workerConn) send(m Message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dispatch: encoding %q line: %w", m.Type, err)
	}
	return w.sendRaw(append(data, '\n'))
}

func (w *workerConn) sendRaw(line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.out.Write(line); err != nil {
		return fmt.Errorf("dispatch: writing to coordinator: %w", err)
	}
	return nil
}

// hit fires a fault site under its plain, per-worker, and per-cell
// names.
func (w *workerConn) hit(site, cellKey string) {
	faultpoint.Hit(site)
	if w.opt.ID > 0 {
		faultpoint.Hit(site + "#" + strconv.Itoa(w.opt.ID))
	}
	if cellKey != "" {
		faultpoint.Hit(site + "@" + cellKey)
	}
}

// fired reports whether a behavioral fault site fired under any of its
// names.
func (w *workerConn) fired(site, cellKey string) bool {
	f := faultpoint.Fired(site)
	if w.opt.ID > 0 {
		f = faultpoint.Fired(site+"#"+strconv.Itoa(w.opt.ID)) || f
	}
	if cellKey != "" {
		f = faultpoint.Fired(site+"@"+cellKey) || f
	}
	return f
}

// runCell computes the cell, heartbeating concurrently, and reports the
// outcome. The returned error is protocol-fatal only; cell failures
// travel to the coordinator as MsgError.
func (w *workerConn) runCell(ctx context.Context, spec CellSpec) error {
	key := spec.Key()
	w.hit(fpCellStart, key)
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.hb)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				w.hit(fpHeartbeat, "")
				// A write error here means the coordinator is gone; the
				// result write below finds out on its own.
				_ = w.send(Message{Type: MsgHeartbeat})
			}
		}
	}()
	payload, cellErr := w.opt.Run(ctx, spec)
	close(stopHB)
	hbWG.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if cellErr != nil {
		return w.send(Message{Type: MsgError, Error: cellErr.Error()})
	}
	w.hit(fpResult, key)
	if w.fired(fpDropResult, key) {
		// A worker that computed the cell and never reports it: silent,
		// alive, until the coordinator expires the lease and kills it —
		// exactly the fault this site simulates.
		<-ctx.Done()
		return ctx.Err()
	}
	if w.fired(fpCorrupt, key) {
		return w.sendRaw([]byte(`{"t":"res","payload":{"torn` + "\n"))
	}
	return w.send(Message{Type: MsgResult, Payload: payload})
}
