package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestMain doubles as the worker binary: when re-exec'd with
// DISPATCH_WORKER_MAIN=1, the test binary becomes a real `-worker`
// process that reads one CellSpec on stdin and serves it on stdout — so
// the subprocess tests exercise ProcTransport against genuine OS
// processes that can be killed for real.
func TestMain(m *testing.M) {
	if os.Getenv("DISPATCH_WORKER_MAIN") == "1" {
		workerMain()
		return
	}
	os.Exit(m.Run())
}

func workerMain() {
	id := 0
	for i, a := range os.Args {
		if a == "-workerid" && i+1 < len(os.Args) {
			id, _ = strconv.Atoi(os.Args[i+1])
		}
	}
	var spec CellSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	err := ServeCell(context.Background(), os.Stdout, spec, WorkerOptions{
		ID:                id,
		HeartbeatInterval: 20 * time.Millisecond,
		Run: func(ctx context.Context, spec CellSpec) (json.RawMessage, error) {
			if spec.Bench == "fail" {
				return nil, fmt.Errorf("cell %s: synthetic failure", spec.Key())
			}
			return json.Marshal(spec)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// procSlots builds n subprocess slots re-exec'ing this test binary,
// with faults injected into the children via REPRO_FAULTPOINTS.
func procSlots(n int, faults string) []Slot {
	env := []string{"DISPATCH_WORKER_MAIN=1", "REPRO_FAULTPOINTS=" + faults}
	out := make([]Slot, n)
	for i := range out {
		out[i] = Slot{Name: "local", Open: ProcTransport([]string{os.Args[0]}, env)}
	}
	return out
}

// Subprocess slots complete a small grid; worker 1 (the first attempt)
// is killed (exit=137, the faultpoint stand-in for SIGKILL) just before
// sending its result, and the cell's next attempt finishes it with
// identical bytes.
func TestProcWorkerCrashMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	lb := &logBuf{}
	c, err := newCoordinator(Options{
		Slots:        procSlots(2, "dispatch.worker.result#1:exit=137"),
		LeaseTimeout: 2 * time.Second,
		Logf:         lb.logf,
	}, 10*time.Millisecond, maxBackoff, maxStrikes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for layer := 1; layer <= 3; layer++ {
		wg.Add(1)
		go func(layer int) {
			defer wg.Done()
			spec := CellSpec{Bench: "b14", Layer: layer, Scale: 0.05, KeyBits: 16, Patterns: 64, Seed: 7}
			got, err := c.RunCell(context.Background(), spec)
			if err != nil {
				t.Errorf("cell M%d: %v", layer, err)
				return
			}
			want, _ := json.Marshal(spec)
			if string(got) != string(want) {
				t.Errorf("cell M%d payload = %s, want %s", layer, got, want)
			}
		}(layer)
	}
	wg.Wait()
	if !lb.contains("worker died mid-cell") {
		t.Fatalf("no mid-cell death observed; lines: %v", lb.lines)
	}
}

// A subprocess that freezes before its first heartbeat (stalled at cell
// start) has its lease expired and is SIGKILLed for real; the next
// attempt completes the cell.
func TestProcWorkerStalledHeartbeat(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	lb := &logBuf{}
	c, err := newCoordinator(Options{
		Slots:        procSlots(1, "dispatch.worker.cell.start#1:stall=120s"),
		LeaseTimeout: 1 * time.Second,
		Logf:         lb.logf,
	}, 10*time.Millisecond, maxBackoff, maxStrikes)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := CellSpec{Bench: "b14", Layer: 4, Seed: 5}
	got, err := c.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("cell did not survive a stalled worker: %v", err)
	}
	want, _ := json.Marshal(spec)
	if string(got) != string(want) {
		t.Fatalf("payload = %s, want %s", got, want)
	}
	if !lb.contains("lease expired") {
		t.Fatalf("no lease expiry logged; lines: %v", lb.lines)
	}
}

// A clean cell failure in a subprocess travels back as the cell's error
// and the slot keeps serving.
func TestProcWorkerCellError(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	c, err := New(Options{Slots: procSlots(1, "")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "fail", Layer: 1}); err == nil {
		t.Fatal("failing cell returned nil error")
	} else if IsQuarantined(err) {
		t.Fatalf("clean failure quarantined: %v", err)
	}
	if _, err := c.RunCell(context.Background(), CellSpec{Bench: "b14", Layer: 1}); err != nil {
		t.Fatalf("slot unusable after clean failure: %v", err)
	}
}
