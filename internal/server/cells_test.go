package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/flow"
)

func testCellSpec() dispatch.CellSpec {
	return dispatch.CellSpec{
		Bench:    "b14",
		Layer:    4,
		Scale:    0.03,
		KeyBits:  48,
		Patterns: 1 << 10,
		Seed:     4,
	}
}

// TestCellsEndpointStreamsProtocol drives POST /v1/cells raw: the
// response must open with a hello line and end with exactly one res
// line whose payload matches an in-process computation of the same
// cell byte for byte.
func TestCellsEndpointStreamsProtocol(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	spec := testCellSpec()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cells = %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var types []string
	var payload json.RawMessage
	for sc.Scan() {
		var msg dispatch.Message
		if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Bytes(), err)
		}
		types = append(types, string(msg.Type))
		if msg.Type == dispatch.MsgResult {
			payload = msg.Payload
		}
		if msg.Type == dispatch.MsgError {
			t.Fatalf("cell failed remotely: %s", msg.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) < 2 || types[0] != "hello" || types[len(types)-1] != "res" {
		t.Fatalf("stream shape = %v, want hello ... res", types)
	}
	want, err := flow.DispatchCellFunc(flow.ITCOptions{})(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(want) {
		t.Fatalf("remote payload differs from local:\nremote: %s\nlocal:  %s", payload, want)
	}
}

// TestRunCellCapsSolverWidth: a cell's portfolio width is clamped to
// the daemon's cap, as a job's is. A 1<<20-member request (about
// 600 GB of solvers if built) returns the 2-member payload on a 2-slot
// manager byte for byte.
func TestRunCellCapsSolverWidth(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, SolverSlots: 2})
	spec := testCellSpec()
	spec.SolverWorkers = 2
	want, err := flow.DispatchCellFunc(flow.ITCOptions{})(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.SolverWorkers = 1 << 20
	got, err := m.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("over-wide cell payload differs from the 2-member one:\n%s\n%s", got, want)
	}
}

// TestCellsEndpointRejectsWhenDraining: a draining daemon answers 503
// before the stream starts — the coordinator's rejection path, which
// requeues the cell without charging its crash budget.
func TestCellsEndpointRejectsWhenDraining(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	if err := m.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(testCellSpec())
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon answered %s, want 503", resp.Status)
	}
}

// TestCellsEndpointDrainEndsStreamWithoutResult: a daemon drained while
// a cell waits for a slot ends the stream after hello and heartbeats
// with neither a res nor an err line, so the coordinator counts it as a
// dead worker instead of recording the cell as cleanly failed.
func TestCellsEndpointDrainEndsStreamWithoutResult(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1, MaxCells: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	m.cellSem <- struct{}{} // hold the only cell slot
	body, _ := json.Marshal(testCellSpec())
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cells = %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var types []string
	for sc.Scan() {
		var msg dispatch.Message
		if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Bytes(), err)
		}
		types = append(types, string(msg.Type))
		if msg.Type == dispatch.MsgHeartbeat && !m.Draining() {
			// The cell is queued behind the held slot: drain now.
			if err := m.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(types) < 2 || types[0] != "hello" || types[1] != "hb" {
		t.Fatalf("stream shape = %v, want hello, hb, ...", types)
	}
	for _, typ := range types {
		if typ == string(dispatch.MsgResult) || typ == string(dispatch.MsgError) {
			t.Fatalf("drained stream carried a %q line: %v", typ, types)
		}
	}
}

// TestCellsEndpointRejectsBadSpec: a cell spec that does not parse, or
// that POST /v1/jobs would reject as a job (out-of-range scale or key
// size, unknown benchmark), gets a 400 before any stream starts.
func TestCellsEndpointRejectsBadSpec(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	for _, body := range []string{
		`{`, `{"bogus":1}`, `{}`,
		`{"bench":"b14","layer":4,"scale":1.5}`,
		`{"bench":"b14","layer":4,"scale":0.03,"keybits":5000}`,
		`{"bench":"nope","layer":4,"scale":0.03}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q answered %s, want 400", body, resp.Status)
		}
	}
}

// TestRemoteWorkerEndToEnd runs the full remote leg: a dispatch
// coordinator whose only worker is this daemon (via RemoteSpawner),
// leasing a real cell over HTTP and getting back the byte-identical
// payload.
func TestRemoteWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a real cell")
	}
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	c, err := dispatch.New(dispatch.Options{
		Spawners:     []dispatch.SpawnFunc{dispatch.RemoteSpawner(ts.URL, nil)},
		LeaseTimeout: 5 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := testCellSpec()
	got, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("remote cell: %v", err)
	}
	want, err := flow.DispatchCellFunc(flow.ITCOptions{})(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("remote payload differs from local:\nremote: %s\nlocal:  %s", got, want)
	}
}
