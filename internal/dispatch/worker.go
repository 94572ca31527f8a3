package dispatch

import (
	"bufio"
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
// REPRO_FAULTPOINTS spec can target one worker of a fleet or one cell of
// a grid. The behavioral sites (drop/corrupt) fire on the `panic`
// action via faultpoint.Fired. The sites fire in every process that
// serves cells: `tables -worker` processes (ServeWorker) and splitlockd
// daemons answering POST /v1/cells (ServeCell), where the worker is
// anonymous, so only the plain and per-cell names fire.
var (
	fpCellStart = faultpoint.Describe("dispatch.worker.cell.start",
		"worker: before computing an assigned cell (also #<id>, @<cell>); stall here to hold a lease open")
	fpHeartbeat = faultpoint.Describe("dispatch.worker.heartbeat",
		"worker: each heartbeat tick (also #<id>); stall here to miss heartbeats and expire the lease")
	fpResult = faultpoint.Describe("dispatch.worker.result",
		"worker: before sending a completed cell's result (also #<id>, @<cell>); exit= here simulates a crash mid-cell")
	fpDropResult = faultpoint.Describe("dispatch.worker.drop-result",
		"worker: behavioral (arm with panic; also #<id>, @<cell>) — the computed result is discarded, never sent")
	fpCorrupt = faultpoint.Describe("dispatch.worker.corrupt-payload",
		"worker: behavioral (arm with panic; also #<id>, @<cell>) — the result line is replaced with torn JSON")
)

// CellFunc computes one cell and returns its JSON payload. It must be
// deterministic in the spec's result-affecting fields: the coordinator
// relies on any worker, on any attempt, producing identical bytes.
type CellFunc func(ctx context.Context, spec CellSpec) (json.RawMessage, error)

// WorkerOptions configures ServeWorker and ServeCell.
type WorkerOptions struct {
	// ID is the coordinator-assigned worker identity (used in hello and
	// in per-worker fault-site names); 0 is anonymous.
	ID int
	// HeartbeatInterval is the lease-renewal period while a cell runs
	// (default 500ms). The coordinator's lease timeout should be a
	// comfortable multiple of it.
	HeartbeatInterval time.Duration
	// Run computes cells.
	Run CellFunc
}

// ServeWorker runs the worker half of the protocol over in/out: hello,
// then a loop of lease → heartbeats-while-computing → result/error,
// until in reaches EOF, a quit message arrives, or ctx is cancelled. A
// cell failure is reported to the coordinator and the worker stays
// available; only protocol-level problems (unwritable out) end the
// loop with an error.
func ServeWorker(ctx context.Context, in io.Reader, out io.Writer, opt WorkerOptions) error {
	w, err := startWorker(out, opt)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		msg, err := decodeLine(line)
		if err != nil {
			// A coordinator we cannot understand is not one we can serve.
			return err
		}
		switch msg.Type {
		case MsgQuit:
			return nil
		case MsgAssign:
			if msg.Cell == nil {
				return fmt.Errorf("dispatch: assign without a cell")
			}
			if err := w.runCell(ctx, msg.ID, *msg.Cell); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dispatch: unexpected %q message from coordinator", msg.Type)
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("dispatch: reading coordinator: %w", err)
	}
	return ctx.Err()
}

// ServeCell runs the worker half of the protocol for one cell leased out
// of band, as a remote worker's response stream does: hello, heartbeats
// while the cell computes, then exactly one res or err line. The lease
// is the coordinator's business (its client stamps the lease ID onto
// the lines), so the lines carry none. A cancelled ctx ends the stream
// with no result line, which the coordinator counts as a dead worker.
func ServeCell(ctx context.Context, out io.Writer, spec CellSpec, opt WorkerOptions) error {
	w, err := startWorker(out, opt)
	if err != nil {
		return err
	}
	return w.runCell(ctx, 0, spec)
}

// startWorker fills opt's defaults and sends the hello line.
func startWorker(out io.Writer, opt WorkerOptions) (*workerConn, error) {
	if opt.Run == nil {
		return nil, fmt.Errorf("dispatch: a worker needs a CellFunc")
	}
	if opt.HeartbeatInterval <= 0 {
		opt.HeartbeatInterval = 500 * time.Millisecond
	}
	w := &workerConn{out: out, opt: opt}
	if err := w.send(Message{Type: MsgHello, Worker: opt.ID, Version: ProtocolVersion}); err != nil {
		return nil, err
	}
	return w, nil
}

// workerConn serializes protocol writes: the heartbeat goroutine and the
// cell goroutine share one line stream.
type workerConn struct {
	mu  sync.Mutex
	out io.Writer
	opt WorkerOptions
}

func (w *workerConn) send(m Message) error {
	data, err := encodeLine(m)
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

// runCell computes one leased cell, heartbeating concurrently, and
// reports the outcome. The returned error is protocol-fatal only; cell
// failures travel to the coordinator as MsgError.
func (w *workerConn) runCell(ctx context.Context, lease uint64, spec CellSpec) error {
	key := spec.Key()
	w.hit(fpCellStart, key)
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.opt.HeartbeatInterval)
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
				// main loop will find out on its own next write or EOF.
				_ = w.send(Message{Type: MsgHeartbeat, ID: lease})
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
		return w.send(Message{Type: MsgError, ID: lease, Error: cellErr.Error()})
	}
	w.hit(fpResult, key)
	if w.fired(fpDropResult, key) {
		// The lease will expire at the coordinator — exactly the fault
		// this site simulates. The worker stays alive and keeps serving.
		return nil
	}
	if w.fired(fpCorrupt, key) {
		return w.sendRaw([]byte(`{"t":"res","id":` + strconv.FormatUint(lease, 10) + `,"payload":{"torn` + "\n"))
	}
	return w.send(Message{Type: MsgResult, ID: lease, Payload: payload})
}
