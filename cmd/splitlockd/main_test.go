package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/server"
)

// TestRunCancelEndsCellStream: cancelling run's context (what SIGTERM
// does in main) while a /v1/cells cell computes must cancel the cell
// before the HTTP server waits for its handler, so the stream ends
// after its heartbeats with no res line — a cell that ran to the end
// would have sent one — and run returns. The cell is the paper's
// full-size b14 cell, which computes for several seconds.
func TestRunCancelEndsCellStream(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a full-size b14 cell")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, ln, server.ManagerOptions{StateDir: t.TempDir(), MaxJobs: 1}, time.Minute)
	}()

	body := `{"bench":"b14","layer":4,"scale":1,"keybits":128,"patterns":1048576,"seed":1}`
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cells = %s", resp.Status)
	}
	var types []string
	var cancelled time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var msg dispatch.Message
		if err := json.Unmarshal(sc.Bytes(), &msg); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Bytes(), err)
		}
		types = append(types, string(msg.Type))
		if msg.Type == dispatch.MsgHeartbeat && cancelled.IsZero() {
			cancelled = time.Now()
			cancel()
		}
	}
	if cancelled.IsZero() {
		t.Fatalf("stream ended before its first heartbeat: %v", types)
	}
	for _, typ := range types {
		if typ == string(dispatch.MsgResult) || typ == string(dispatch.MsgError) {
			t.Fatalf("cancelled stream carried a %q line: %v", typ, types)
		}
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of the cancel")
	}
}
