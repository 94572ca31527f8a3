// Package dispatch shards the table harness's benchmark×layer cell grid
// across OS processes and machines. A coordinator runs one goroutine
// per worker slot over one queue of ready cells; a slot takes the next
// cell and runs it as one *attempt* under a lease: the slot's transport
// opens a line stream for the attempt (a fresh `tables -worker`
// process, or one POST /v1/cells to a splitlockd daemon), the worker
// heartbeats on it while it computes, and each heartbeat resets the
// lease timer. A lease that fires cancels the attempt — the worker is
// killed and the cell reassigned with doubling-plus-jitter backoff.
// Robustness is the design center, not an add-on: an attempt that
// crashes (SIGKILL), hangs, or returns a poisoned payload costs one
// entry of the cell's bounded crash budget, and a cell that kills its
// budget's worth of workers is quarantined (reported as that cell's
// error) while the rest of the sweep proceeds. Cells are deterministic
// functions of their spec, so a result is identical no matter which
// worker — or how many attempts — produced it, and a distributed table
// is byte-identical to a single-process run.
//
// The wire protocol is line-oriented JSON, one Message per line, worker
// to coordinator only: hello, heartbeats while the cell runs, then
// exactly one res or err line (ServeCell writes it). A local worker
// reads its one CellSpec as JSON on stdin and writes the stream to
// stdout; a daemon takes the CellSpec as the request body and streams
// the lines back as the response. Each slot reads its own attempt's
// stream and knows the lease from the attempt, so the lines carry none.
package dispatch

import (
	"encoding/json"
	"fmt"
)

// ProtocolVersion gates coordinator/worker pairing; a stream whose hello
// carries a different version is refused rather than silently
// misinterpreted (the cell is requeued uncharged, the slot takes a
// strike).
const ProtocolVersion = 3

// MsgType discriminates protocol messages.
type MsgType string

// Protocol message types, all sent by the worker.
const (
	// MsgHello is the worker's first line: protocol version + identity.
	MsgHello MsgType = "hello"
	// MsgHeartbeat renews the attempt's lease.
	MsgHeartbeat MsgType = "hb"
	// MsgResult completes the attempt with a payload.
	MsgResult MsgType = "res"
	// MsgError completes the attempt with a clean cell failure (the
	// cell ran and failed; this is not a worker crash).
	MsgError MsgType = "err"
)

// Message is one protocol line.
type Message struct {
	Type MsgType `json:"t"`
	// Worker is the worker's self-reported identity (hello; 0 for a
	// daemon, which serves anonymously).
	Worker int `json:"worker,omitempty"`
	// Version is the protocol version (hello).
	Version int `json:"v,omitempty"`
	// Payload is the completed cell's JSON result (res).
	Payload json.RawMessage `json:"payload,omitempty"`
	// Error is the cell's failure message (err).
	Error string `json:"error,omitempty"`
}

// CellSpec fully describes one benchmark×layer cell of the Table I/II
// sweep: everything a worker needs to compute the cell without sharing
// flags or files with the coordinator. Results are deterministic
// functions of (Bench, Layer, Scale, KeyBits, Patterns, Seed). The
// simulation width and worker count are not part of the spec: a worker
// picks the width automatically and simulates on its own GOMAXPROCS.
type CellSpec struct {
	Bench    string  `json:"bench"`
	Layer    int     `json:"layer"`
	Scale    float64 `json:"scale"`
	KeyBits  int     `json:"keybits"`
	Patterns int     `json:"patterns"`
	Seed     uint64  `json:"seed"`
	// SolverWorkers is ignored: a cell's LEC step always builds one
	// SAT solver. Older coordinators still send it, and a daemon decodes
	// specs with unknown fields rejected, so the field stays.
	SolverWorkers int `json:"solver_workers,omitempty"`
}

// Key names the cell as it appears in manifests and error reports
// ("b14/M4").
func (s CellSpec) Key() string { return fmt.Sprintf("%s/M%d", s.Bench, s.Layer) }

// decodeLine parses one protocol line. A line that does not parse as a
// Message is a protocol violation the caller must treat as a poisoned
// attempt — corrupt output counts against the sender, it is never
// silently coerced.
func decodeLine(line []byte) (Message, error) {
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return Message{}, fmt.Errorf("dispatch: bad protocol line %.80q: %w", line, err)
	}
	if m.Type == "" {
		return Message{}, fmt.Errorf("dispatch: protocol line %.80q has no type", line)
	}
	return m, nil
}
