package main

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/metrics"
)

// zeroRow matches a table row that prints a layer as all zeros.
var zeroRow = regexp.MustCompile(`(?m)^\S+\s+\|(\s+0){2,}\s*(\||$)`)

// TestFailedCellsPrintNoZeros runs a sweep in which every cell fails
// (no b14 ×0.02 design has room for 4096 key bits): it must exit 1,
// mark the cells failed and print no row of zeros.
func TestFailedCellsPrintNoZeros(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tables binary")
	}
	bin := filepath.Join(t.TempDir(), "tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-table", "1", "-keybits", "4096", "-scale", "0.02", "-benchmarks", "b14", "-patterns", "64")
	var stdout strings.Builder
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	out := stdout.String()
	if zeroRow.MatchString(out) {
		t.Errorf("stdout prints a row of zeros:\n%s", out)
	}
	if !strings.Contains(out, "b14    |   "+failedCell) {
		t.Errorf("stdout does not mark b14's cells %s:\n%s", failedCell, out)
	}
}

// captureStdout returns what print writes to os.Stdout.
func captureStdout(t *testing.T, print func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	print()
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestAvgLeavesFailedCellsOut: a failed cell prints the marker and
// does not pull its layer's average down; the other layer's average
// still counts every row.
func TestAvgLeavesFailedCellsOut(t *testing.T) {
	res := func(x float64) flow.SplitResult {
		return flow.SplitResult{CCR: metrics.CCR{KeyLogical: x, KeyPhysical: x, Regular: x}, HD: x, OER: x, LogicalNoPost: x}
	}
	rows := []flow.ITCRow{
		{Benchmark: "b14", Results: map[int]flow.SplitResult{4: res(0.5), 6: res(0.2)}},
		{Benchmark: "b15", Results: map[int]flow.SplitResult{6: res(0.4)}, Errors: map[int]error{4: errors.New("boom")}},
	}
	for _, tc := range []struct {
		name        string
		print       func([]flow.ITCRow)
		b15, avgRow string
	}{
		{"I", printTableI,
			"b15    |   failed   failed   failed |       40       40       40",
			"Avg    |       50       50       50 |       30       30       30"},
		{"II", printTableII,
			"b15    |   failed   failed |       40       40",
			"Avg    |       50       50 |       30       30"},
		{"f6", printFootnote6,
			"b15    |   failed     40.0",
			"Avg    |     50.0     30.0"},
	} {
		out := captureStdout(t, func() { tc.print(rows) })
		for _, want := range []string{tc.b15, tc.avgRow} {
			if !strings.Contains(out, want+"\n") {
				t.Errorf("table %s: no line %q in\n%s", tc.name, want, out)
			}
		}
	}
}
