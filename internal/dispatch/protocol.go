// Package dispatch shards the table harness's benchmark×layer cell grid
// across OS processes. A coordinator owns the cell queue and hands cells
// to workers under *leases*: an assignment carries a lease ID, the
// worker heartbeats while it computes, and a lease whose heartbeats stop
// arriving is expired — the worker is killed and the cell reassigned to
// another worker with doubling-plus-jitter backoff. Robustness is the
// design center, not an add-on: a worker that crashes (SIGKILL), hangs,
// or returns a poisoned payload costs one entry of the cell's bounded
// crash budget, and a cell that kills its budget's worth of workers is
// quarantined (reported as that cell's error) while the rest of the
// sweep proceeds. Cells are deterministic functions of their spec, so a
// result is identical no matter which worker — or how many attempts —
// produced it, and a distributed table is byte-identical to a
// single-process run.
//
// The wire protocol is line-oriented JSON, one Message per line. Local
// workers speak it over stdin/stdout (`tables -worker`); remote workers
// speak the same worker→coordinator half over a streaming HTTP response
// from a splitlockd daemon (`tables -connect`).
package dispatch

import (
	"encoding/json"
	"fmt"
)

// ProtocolVersion gates coordinator/worker pairing; a worker whose hello
// carries a different version is rejected rather than silently
// misinterpreted.
const ProtocolVersion = 2

// MsgType discriminates protocol messages.
type MsgType string

// Protocol message types. Coordinator→worker: MsgAssign, MsgQuit.
// Worker→coordinator: MsgHello, MsgHeartbeat, MsgResult, MsgError.
const (
	// MsgHello is the worker's first line: protocol version + identity.
	MsgHello MsgType = "hello"
	// MsgAssign leases a cell to the worker (ID is the lease).
	MsgAssign MsgType = "cell"
	// MsgQuit asks the worker to exit after its current cell.
	MsgQuit MsgType = "quit"
	// MsgHeartbeat renews the lease named by ID.
	MsgHeartbeat MsgType = "hb"
	// MsgResult completes the lease named by ID with a payload.
	MsgResult MsgType = "res"
	// MsgError completes the lease named by ID with a clean cell
	// failure (the cell ran and failed; this is not a worker crash).
	MsgError MsgType = "err"
)

// Message is one protocol line.
type Message struct {
	Type MsgType `json:"t"`
	// ID is the lease this message belongs to (assign/hb/res/err).
	ID uint64 `json:"id,omitempty"`
	// Worker is the worker's self-reported identity (hello).
	Worker int `json:"worker,omitempty"`
	// Version is the protocol version (hello).
	Version int `json:"v,omitempty"`
	// Cell is the leased cell (assign).
	Cell *CellSpec `json:"cell,omitempty"`
	// Payload is the completed cell's JSON result (res).
	Payload json.RawMessage `json:"payload,omitempty"`
	// Error is the cell's failure message (err).
	Error string `json:"error,omitempty"`
}

// CellSpec fully describes one benchmark×layer cell of the Table I/II
// sweep: everything a worker needs to compute the cell without sharing
// flags or files with the coordinator. Results are deterministic
// functions of (Bench, Layer, Scale, KeyBits, Patterns, Seed) — the
// remaining fields are speed knobs that never change the payload.
type CellSpec struct {
	Bench    string  `json:"bench"`
	Layer    int     `json:"layer"`
	Scale    float64 `json:"scale"`
	KeyBits  int     `json:"keybits"`
	Patterns int     `json:"patterns"`
	Seed     uint64  `json:"seed"`
	// SimWidth is the wide-simulation word width (0 = auto).
	SimWidth int `json:"sim_width,omitempty"`
	// SimWorkers caps the worker-process simulation pool (0 =
	// GOMAXPROCS). The coordinator divides the host's cores across its
	// local workers here.
	SimWorkers int `json:"sim_workers,omitempty"`
	// SolverWorkers is the per-cell SAT portfolio width (deterministic
	// time-sliced mode; 0/1 = single solver).
	SolverWorkers int `json:"solver_workers,omitempty"`
}

// Key names the cell as it appears in manifests and error reports
// ("b14/M4").
func (s CellSpec) Key() string { return fmt.Sprintf("%s/M%d", s.Bench, s.Layer) }

// encodeLine marshals one protocol line (without the trailing newline).
func encodeLine(m Message) ([]byte, error) {
	return json.Marshal(m)
}

// decodeLine parses one protocol line. A line that does not parse as a
// Message is a protocol violation the caller must treat as a poisoned
// worker — corrupt output counts against the sender, it is never
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
