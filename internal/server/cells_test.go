package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/faultpoint"
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

// postCell POSTs body to /v1/cells and returns the stream's line types
// and its res payload; an err line fails the test.
func postCell(t *testing.T, ts *httptest.Server, body string) (types []string, payload json.RawMessage) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cells = %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
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
	return types, payload
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
	types, payload := postCell(t, ts, string(body))
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

// TestCellsEndpointIgnoresSolverWidth: a cell's LEC step builds one SAT
// solver whatever the spec's solver_workers says. Older coordinators
// still send the field, so it must decode, and a 1<<20-member request
// (about 600 GB of solvers, were they built) returns the payload of a
// request without it byte for byte.
func TestCellsEndpointIgnoresSolverWidth(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	body, _ := json.Marshal(testCellSpec())
	_, want := postCell(t, ts, string(body))
	wide := strings.Replace(string(body), "}", `,"solver_workers":1048576}`, 1)
	_, got := postCell(t, ts, wide)
	if want == nil || string(got) != string(want) {
		t.Fatalf("payload with solver_workers 1048576 differs from one without:\n%s\n%s", got, want)
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
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
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
// that POST /v1/jobs would reject as a job (out-of-range scale, key
// size or pattern count, unknown benchmark), gets a 400 before any
// stream starts.
func TestCellsEndpointRejectsBadSpec(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	for _, body := range []string{
		`{`, `{"bogus":1}`, `{}`,
		`{"bench":"b14","layer":4,"scale":1.5}`,
		`{"bench":"b14","layer":4,"scale":0.03,"keybits":5000}`,
		`{"bench":"b14","layer":4,"scale":0.03,"keybits":-5}`,
		`{"bench":"nope","layer":4,"scale":0.03}`,
		`{"bench":"b14","layer":4,"scale":0.03,"patterns":9223372036854775807}`,
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
// coordinator whose only slot is this daemon (via HTTPTransport),
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
		Slots:        []dispatch.Slot{{Name: ts.URL, Open: dispatch.HTTPTransport(ts.URL)}},
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

// TestRemoteRefusedCellFailsAtOnce: a cell the daemon refuses with a
// 400 — scale 2 is out of range, or any cell while the
// server.cells.refuse site is armed — is that cell's clean failure and
// carries the daemon's reason. It is neither a rejection, which would
// requeue it until the slot retires, nor a worker death, which at crash
// budget 1 would quarantine it.
func TestRemoteRefusedCellFailsAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name, reason string
		scale        float64
		arm          bool
	}{
		{"scale", "scale", 2, false},
		{"fault site", "refused at fault site " + fpCellsRefuse, 0.03, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.arm {
				faultpoint.Set(fpCellsRefuse, func() { panic("refuse") })
				defer faultpoint.Reset()
			}
			m := newTestManager(t, ManagerOptions{MaxJobs: 1})
			ts := httptest.NewServer(NewServer(m))
			defer ts.Close()
			var mu sync.Mutex
			var logs []string
			c, err := dispatch.New(dispatch.Options{
				Slots:       []dispatch.Slot{{Name: ts.URL, Open: dispatch.HTTPTransport(ts.URL)}},
				CrashBudget: 1,
				Logf: func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					logs = append(logs, fmt.Sprintf(format, args...))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			spec := testCellSpec()
			spec.Scale = tc.scale
			_, err = c.RunCell(ctx, spec)
			if err == nil || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("refused cell returned %v, want the daemon's reason %q", err, tc.reason)
			}
			if dispatch.IsQuarantined(err) {
				t.Fatalf("refused cell was charged a worker death: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, l := range logs {
				if strings.Contains(l, "rejected") || strings.Contains(l, "requeue") || strings.Contains(l, "died") {
					t.Fatalf("refused cell was retried: %q in %v", l, logs)
				}
			}
		})
	}
}
