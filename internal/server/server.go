package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/flow"
)

// Server is the HTTP/JSON face of a Manager. Routes:
//
//	POST /v1/jobs             submit a job        → 202 JobRecord
//	GET  /v1/jobs             list jobs           → 200 []JobRecord
//	GET  /v1/jobs/{id}        poll one job        → 200 JobRecord
//	GET  /v1/jobs/{id}/events stream progress     → 200 NDJSON
//	POST /v1/cells            run a table cell    → 200 NDJSON (dispatch protocol)
//	GET  /v1/healthz          daemon liveness     → 200 counters
//
// The events stream is newline-delimited JSON, flushed per event, and
// ends when the job reaches a terminal status — a curl reader sees
// stage lines arrive live and EOF when the job settles. The cells
// stream speaks the worker half of the dispatch protocol (see
// internal/dispatch): a `tables -connect` coordinator leases
// benchmark×layer cells to this daemon as if it were a local worker
// process.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer wires the routes.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("POST /v1/cells", s.cells)
	s.mux.HandleFunc("GET /v1/healthz", s.healthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec flow.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	rec, err := s.mgr.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, rec)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// events streams the job's progress log as NDJSON: the backlog first,
// then live events as they happen, then one final status line when the
// job settles. Disconnecting the client just drops the subscription.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	backlog, live, cancelSub, ok := s.mgr.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	defer cancelSub()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	send := func(ev flow.JobEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range backlog {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case ev, open := <-live:
			if !open {
				// Terminal: report where the job landed so a reader that
				// only watched the stream learns the outcome.
				if rec, ok := s.mgr.Get(id); ok {
					send(flow.JobEvent{Stage: "final", Message: string(rec.Status)})
				}
				return
			}
			if !send(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// healthz reports liveness and counters: jobs known, queued and
// running, cached results, cells running, and solver_slots, the
// portfolio-width cap every job and cell is clamped to.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	jobs, queued, running, cached := s.mgr.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"jobs":         jobs,
		"queued":       queued,
		"running":      running,
		"cached":       cached,
		"cells":        s.mgr.CellsRunning(),
		"solver_slots": s.mgr.pool.Total(),
	})
}
