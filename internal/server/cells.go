package server

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/dispatch"
	"repro/internal/faultpoint"
	"repro/internal/flow"
)

// fpCellsRefuse is a behavioural site: armed with the panic action, it
// makes POST /v1/cells refuse a valid cell with a 400, the answer a
// coordinator must turn into that cell's failure at once.
var fpCellsRefuse = faultpoint.Describe("server.cells.refuse",
	"server: POST /v1/cells, after the spec checks; panic makes the daemon refuse the cell with a 400")

// RunCell computes one dispatched table cell, gated by the daemon's
// cell semaphore (MaxJobs wide) so coordinators cannot oversubscribe
// the host. A cell's LEC step builds one SAT solver, whatever
// spec.SolverWorkers asks for. It blocks while
// waiting for a slot (the HTTP layer heartbeats through the wait,
// keeping the coordinator's lease alive); a draining daemon refuses
// new cells so its coordinator reassigns them elsewhere.
func (m *Manager) RunCell(ctx context.Context, spec dispatch.CellSpec) (json.RawMessage, error) {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	if draining {
		return nil, ErrDraining
	}
	select {
	case m.cellSem <- struct{}{}:
		defer func() { <-m.cellSem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-m.rootCtx.Done():
		return nil, ErrDraining
	}
	// Bind the cell to the daemon's lifetime as well as the request's:
	// a drain mid-cell cancels the compute, the stream ends without a
	// result line, and the coordinator treats this daemon as a dead
	// worker — which, for lease purposes, it is.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(m.rootCtx, cancel)
	defer stop()
	return flow.DispatchCellFunc(flow.ITCOptions{JobTimeout: m.opt.JobTimeout})(cctx, spec)
}

// CellsRunning reports the number of dispatched cells in flight.
func (m *Manager) CellsRunning() int { return len(m.cellSem) }

// cells serves the remote-worker leg of the dispatch protocol: the
// request body is one CellSpec, and the response streams the
// worker→coordinator half as NDJSON through dispatch.ServeCell — hello,
// heartbeats while the cell queues and computes, then exactly one res
// or err line. A spec JobSpec.Validate would reject as a job gets a 400,
// and so does every cell while the server.cells.refuse site is armed.
// A daemon at capacity keeps heartbeating until a slot frees; a
// draining daemon answers 503 before the stream starts, which the
// coordinator treats as a rejection (requeue elsewhere, no crash-budget
// charge).
func (s *Server) cells(w http.ResponseWriter, r *http.Request) {
	var spec dispatch.CellSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad cell spec: %v", err)
		return
	}
	if err := flow.ValidateCellSpec(spec); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if faultpoint.Fired(fpCellsRefuse) {
		writeError(w, http.StatusBadRequest, "cell %s refused at fault site %s", spec.Key(), fpCellsRefuse)
		return
	}
	if s.mgr.Draining() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	run := func(ctx context.Context, spec dispatch.CellSpec) (json.RawMessage, error) {
		payload, err := s.mgr.RunCell(ctx, spec)
		if err != nil && s.mgr.Draining() {
			// The drain, not the cell, ended the compute: cancelling
			// ends the stream with no result line, so the coordinator
			// counts this daemon as a dead worker rather than the cell
			// as cleanly failed.
			cancel()
		}
		return payload, err
	}
	// The only errors are a cancelled stream and a failed write, both of
	// which mean the coordinator's side is gone: nobody is left to tell.
	_ = dispatch.ServeCell(ctx, lineFlusher{w}, spec, dispatch.WorkerOptions{Run: run})
}

// lineFlusher flushes each protocol line as it is written, so the
// coordinator sees every heartbeat while the cell computes.
type lineFlusher struct{ w http.ResponseWriter }

func (f lineFlusher) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}
