// Command benchjson runs the repository's Go benchmarks and emits one
// BENCH_<n>.json file per benchmark with its ns/op and custom metrics,
// so CI and the PR workflow can archive and diff benchmark results
// without parsing `go test` output.
//
// Usage:
//
//	go run ./cmd/benchjson [-bench regexp] [-benchtime 1x] [-pkg .] [-out dir] [-note text] [-short] [-guard name:metric<=value]...
//	go run ./cmd/benchjson -diff old new [-time-tol pct] [-metric-tol pct]
//
// The default pattern covers the paper-table benchmarks, the proximity
// attack kernel, the SAT solver / LEC / SAT-attack benchmarks and the
// ATPG lock.
// -short restricts the run to the fast solver-core benchmarks (the CI
// perf smoke), and -guard asserts a custom metric of a named benchmark
// against a bound — "name:metric<=value" (at most),
// "name:metric>=value" (at least) or "name:metric=value" (exactly). CI
// uses ceiling guards to keep the solver's search behavior inside a
// tolerance band without pinning exact conflict counts, which
// legitimate search changes (such as inprocessing) are allowed to move.
//
// -diff compares two result sets — each argument a BENCH_*.json file
// or a directory of them — by benchmark name and exits non-zero when
// the new set regresses: ns/op worse by more than -time-tol percent,
// or any deterministic work metric (conflicts, conflictsSum, queries,
// aigNodes, ...) worse by more than -metric-tol percent. Metrics that
// measure work done are regressions when they grow; benchmarks present
// on only one side are reported but never fail the diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// guard is one -guard assertion on the named benchmark's metric. op is
// "=", "<=" or ">=".
type guard struct {
	name   string
	metric string
	op     string
	value  float64
}

// parseGuard parses "name:metric=value", "name:metric<=value" or
// "name:metric>=value".
func parseGuard(s string) (guard, error) {
	colon := strings.LastIndex(s, ":")
	if colon < 0 {
		return guard{}, fmt.Errorf("guard %q: want name:metric(=|<=|>=)value", s)
	}
	rest := s[colon+1:]
	op := "="
	cut := strings.Index(rest, "=")
	if cut < 0 {
		return guard{}, fmt.Errorf("guard %q: want name:metric(=|<=|>=)value", s)
	}
	if cut > 0 && (rest[cut-1] == '<' || rest[cut-1] == '>') {
		op = rest[cut-1 : cut+1]
		cut--
	}
	v, err := strconv.ParseFloat(rest[cut+len(op):], 64)
	if err != nil {
		return guard{}, fmt.Errorf("guard %q: bad value: %v", s, err)
	}
	return guard{name: s[:colon], metric: rest[:cut], op: op, value: v}, nil
}

// holds reports whether the observed metric value satisfies the guard.
func (g guard) holds(got float64) bool {
	switch g.op {
	case "<=":
		return got <= g.value
	case ">=":
		return got >= g.value
	default:
		return got == g.value
	}
}

// checkGuards returns an error listing every violated or unmatched
// guard.
func checkGuards(guards []guard, results []Result) error {
	var bad []string
	for _, g := range guards {
		found := false
		for _, r := range results {
			// Result names carry the -GOMAXPROCS suffix.
			if r.Name != g.name && !strings.HasPrefix(r.Name, g.name+"-") {
				continue
			}
			found = true
			if got, ok := r.Metrics[g.metric]; !ok {
				bad = append(bad, fmt.Sprintf("%s: metric %q missing", r.Name, g.metric))
			} else if !g.holds(got) {
				bad = append(bad, fmt.Sprintf("%s: %s = %v, want %s %v", r.Name, g.metric, got, g.op, g.value))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("guard %s:%s%s%v matched no benchmark", g.name, g.metric, g.op, g.value))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// Result is the JSON shape of one benchmark result.
type Result struct {
	// Name is the benchmark name including sub-benchmark path and the
	// GOMAXPROCS suffix, e.g. "BenchmarkSATSolver/pigeonhole-8".
	Name string `json:"name"`
	// Iterations is b.N of the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall-clock nanoseconds per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every custom b.ReportMetric value by unit, e.g.
	// {"queries": 18, "clauses/query": 172.3}.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Note carries free-form context (e.g. "after PR 2"; -note flag).
	Note string `json:"note,omitempty"`
}

// workMetrics are the deterministic work counters -diff treats as
// regressions when they grow. Timing-like metrics (ratios, per-query
// averages) stay informational.
var workMetrics = map[string]bool{
	"conflicts":    true,
	"conflictsSum": true,
	"queries":      true,
	"oracleEvals":  true,
	"aigNodes":     true,
	"miterClauses": true,
	"planOps":      true,
}

// baseName strips the -GOMAXPROCS suffix so result sets recorded on
// hosts with different core counts still pair up.
func baseName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// loadResults reads one BENCH_*.json file, or every BENCH_*.json in a
// directory, into a name-keyed map.
func loadResults(path string) (map[string]Result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "BENCH_*.json"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no BENCH_*.json files", path)
		}
		sort.Strings(files)
	}
	out := make(map[string]Result)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		out[baseName(r.Name)] = r
	}
	return out, nil
}

// diff compares new against old and returns the human-readable report
// plus every regression beyond the tolerances (in percent).
func diff(old, new map[string]Result, timeTol, metricTol float64) (report []string, regressions []string) {
	names := make([]string, 0, len(old))
	for n := range old {
		names = append(names, n)
	}
	sort.Strings(names)
	pct := func(o, n float64) float64 { return (n - o) / o * 100 }
	for _, n := range names {
		o := old[n]
		r, ok := new[n]
		if !ok {
			report = append(report, fmt.Sprintf("%s: missing from new results", n))
			continue
		}
		if o.NsPerOp > 0 {
			d := pct(o.NsPerOp, r.NsPerOp)
			line := fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", n, o.NsPerOp, r.NsPerOp, d)
			report = append(report, line)
			if d > timeTol {
				regressions = append(regressions, line+fmt.Sprintf(" exceeds -time-tol %.0f%%", timeTol))
			}
		}
		metrics := make([]string, 0, len(o.Metrics))
		for m := range o.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ov := o.Metrics[m]
			nv, ok := r.Metrics[m]
			if !ok || ov == 0 {
				continue
			}
			d := pct(ov, nv)
			line := fmt.Sprintf("%s: %s %v -> %v (%+.1f%%)", n, m, ov, nv, d)
			report = append(report, line)
			if workMetrics[m] && d > metricTol {
				regressions = append(regressions, line+fmt.Sprintf(" exceeds -metric-tol %.0f%%", metricTol))
			}
		}
	}
	extra := make([]string, 0)
	for n := range new {
		if _, ok := old[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		report = append(report, fmt.Sprintf("%s: new benchmark (no baseline)", n))
	}
	return report, regressions
}

func runDiff(timeTol, metricTol float64, args []string) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -diff wants exactly two arguments: old and new (file or directory)")
		os.Exit(2)
	}
	old, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	new, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	report, regressions := diff(old, new, timeTol, metricTol)
	for _, line := range report {
		fmt.Println(line)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s):\n", len(regressions))
		for _, line := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		os.Exit(1)
	}
}

func main() {
	bench := flag.String("bench", "BenchmarkTable|BenchmarkFig5|BenchmarkCompare1M|BenchmarkProximity|BenchmarkSATSolver|BenchmarkLEC|BenchmarkSATAttack|BenchmarkAIGMiter|BenchmarkPortfolioMiter|BenchmarkPortfolioUNSAT|BenchmarkATPGLock", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "value passed to go test -benchtime")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", ".", "directory for BENCH_<n>.json files")
	note := flag.String("note", "", "free-form note recorded in every result")
	short := flag.Bool("short", false, "run only the fast solver-core benchmarks (overrides -bench unless -bench was set explicitly)")
	doDiff := flag.Bool("diff", false, "compare two result sets (old new; files or directories) instead of running benchmarks")
	timeTol := flag.Float64("time-tol", 50, "with -diff: fail when ns/op regresses by more than this percentage")
	metricTol := flag.Float64("metric-tol", 25, "with -diff: fail when a work metric (conflicts, queries, ...) regresses by more than this percentage")
	var guards []guard
	flag.Func("guard", "assert a metric bound, as name:metric(=|<=|>=)value (repeatable); exits non-zero on violation", func(s string) error {
		g, err := parseGuard(s)
		if err != nil {
			return err
		}
		guards = append(guards, g)
		return nil
	})
	flag.Parse()

	if *doDiff {
		runDiff(*timeTol, *metricTol, flag.Args())
		return
	}

	pattern := *bench
	if *short {
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "bench" {
				explicit = true
			}
		})
		if !explicit {
			pattern = "BenchmarkSATSolver"
		}
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern, "-benchtime", *benchtime, *pkg)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n", err)
		os.Exit(1)
	}
	results := parse(string(outBytes))
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := checkGuards(guards, results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: guard violated: %v\n", err)
		os.Exit(1)
	}
	for i, r := range results {
		r.Note = *note
		path := filepath.Join(*out, fmt.Sprintf("BENCH_%d.json", i+1))
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\t%s\t%.0f ns/op\n", path, r.Name, r.NsPerOp)
	}
}

// parse extracts benchmark lines of the form
//
//	BenchmarkName-8   3   347101951 ns/op   18.00 queries   172.3 clauses/query
//
// from go test output.
func parse(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		// Remaining fields come in value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				r.NsPerOp = val
			} else {
				r.Metrics[fields[i+1]] = val
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		results = append(results, r)
	}
	return results
}
