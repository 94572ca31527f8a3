package main

import (
	"strings"
	"testing"
)

func TestParseGuard(t *testing.T) {
	cases := []struct {
		in     string
		op     string
		value  float64
		metric string
		err    bool
	}{
		{"BenchmarkX/sub:conflicts=23791", "=", 23791, "conflicts", false},
		{"BenchmarkX:conflicts<=30000", "<=", 30000, "conflicts", false},
		{"BenchmarkX:queries>=5", ">=", 5, "queries", false},
		{"BenchmarkX:conflicts", "", 0, "", true},
		{"noseparator", "", 0, "", true},
	}
	for _, c := range cases {
		g, err := parseGuard(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseGuard(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if err != nil {
			continue
		}
		if g.op != c.op || g.value != c.value || g.metric != c.metric {
			t.Errorf("parseGuard(%q) = %+v, want op=%q value=%v metric=%q", c.in, g, c.op, c.value, c.metric)
		}
	}
}

func TestGuardHolds(t *testing.T) {
	le := guard{op: "<=", value: 100}
	if !le.holds(100) || !le.holds(50) || le.holds(101) {
		t.Error("<= guard wrong")
	}
	ge := guard{op: ">=", value: 10}
	if !ge.holds(10) || ge.holds(9) {
		t.Error(">= guard wrong")
	}
	eq := guard{op: "=", value: 7}
	if !eq.holds(7) || eq.holds(7.5) {
		t.Error("= guard wrong")
	}
}

func TestDiffRegressions(t *testing.T) {
	old := map[string]Result{
		"BenchmarkA":    {Name: "BenchmarkA-8", NsPerOp: 1000, Metrics: map[string]float64{"conflicts": 100}},
		"BenchmarkB":    {Name: "BenchmarkB-8", NsPerOp: 1000},
		"BenchmarkGone": {Name: "BenchmarkGone-8", NsPerOp: 1},
	}
	new := map[string]Result{
		"BenchmarkA":   {Name: "BenchmarkA-16", NsPerOp: 1100, Metrics: map[string]float64{"conflicts": 140}},
		"BenchmarkB":   {Name: "BenchmarkB-16", NsPerOp: 1400},
		"BenchmarkNew": {Name: "BenchmarkNew-16", NsPerOp: 1},
	}
	// conflicts +40% > 25% tolerance; B's +40% ns/op under 50% passes.
	_, regs := diff(old, new, 50, 25)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression (conflicts), got %d: %v", len(regs), regs)
	}
	// Time tolerance 10%: both A (+10% exactly, passes) and B (+40%).
	_, regs = diff(old, new, 10, 50)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression (B time), got %d: %v", len(regs), regs)
	}
	// Nothing regresses with loose tolerances; missing/new never fail.
	report, regs := diff(old, new, 100, 100)
	if len(regs) != 0 {
		t.Fatalf("want 0 regressions, got %v", regs)
	}
	if len(report) == 0 {
		t.Fatal("empty report")
	}
}

// TestDiffWinnerChangeNotExempt: every portfolio is deterministic, so
// a flipped winner is a real search change and its work metrics are
// checked like any other.
func TestDiffWinnerChangeNotExempt(t *testing.T) {
	old := map[string]Result{
		"BenchmarkP": {Name: "BenchmarkP-8", NsPerOp: 1000,
			Metrics: map[string]float64{"conflictsSum": 100, "winner": 1}},
	}
	new := map[string]Result{
		"BenchmarkP": {Name: "BenchmarkP-8", NsPerOp: 1000,
			Metrics: map[string]float64{"conflictsSum": 200, "winner": 0}},
	}
	_, regs := diff(old, new, 100, 50)
	if len(regs) != 1 || !strings.Contains(regs[0], "conflictsSum") {
		t.Fatalf("want the conflictsSum regression, got %v", regs)
	}
}

func TestBaseName(t *testing.T) {
	if got := baseName("BenchmarkA/sub-8"); got != "BenchmarkA/sub" {
		t.Errorf("baseName = %q", got)
	}
	if got := baseName("BenchmarkA/members=4"); got != "BenchmarkA/members=4" {
		t.Errorf("baseName stripped a non-numeric suffix: %q", got)
	}
}
