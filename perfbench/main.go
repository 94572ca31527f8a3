// Command perfbench is the repository's benchmark. It drives the
// SplitLock reproduction from outside, through its public entry points —
// flow.RunITC for Table I/II sweeps and the splitlockd HTTP API for a
// daemon job mix — checks every output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload paper-b14 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports end-to-end metrics from an untraced run.
// With --trace 1 it runs the workload untraced and then traced (every
// layer called directly, with a span around each call), fails unless
// both produce byte-identical outputs, and reports per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runState is one set-up workload, ready to run.
type runState interface {
	// plain runs the workload through the public entry points.
	plain(ctx context.Context) (*runOut, error)
	// traced runs it through the layers directly, recording spans.
	traced(ctx context.Context, rec *recorder) (*runOut, error)
	// check validates one output for a seed without recorded bytes.
	check(key string, out []byte) error
	close()
}

// runOut is what one pass of a workload produced. An operation is a
// table cell or a daemon job.
type runOut struct {
	wall    float64            // seconds
	outputs map[string][]byte  // operation key → canonical output bytes
	failed  map[string]string  // operation key → why it failed
	latency map[string]float64 // per operation, submission to completion
}

func newRunOut() *runOut {
	return &runOut{outputs: make(map[string][]byte), failed: make(map[string]string), latency: make(map[string]float64)}
}

// attempted counts the operations that produced an output or failed.
func (o *runOut) attempted() int {
	n := len(o.outputs)
	for k := range o.failed {
		if _, ok := o.outputs[k]; !ok {
			n++
		}
	}
	return n
}

type workload struct {
	name  string
	setup func(ctx context.Context, seed uint64, dir string, seconds int) (runState, error)
}

// workloads lists what the benchmark runs, as BENCHMARK.json declares.
var workloads = []workload{
	{name: "paper-b14", setup: setupPaperB14},
	{name: "daemon-mix", setup: setupDaemonMix},
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 5

// warmUpSeed seeds the set-up's warm-up work. It is the same for every
// workload seed, so set-up does the same work in every run.
const warmUpSeed = 1

// deadline bounds one invocation; the harness must exit well within
// three minutes.
const deadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-b14 or daemon-mix")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 40, "run length; sizes the daemon-mix batch")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "repository checkout the benchmark runs in")
		record  = flag.Bool("record", false, "write this run's outputs as the expected outputs (default seed only)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed uint64, seconds int, traced bool, root string, record bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if record && (seed != defaultSeed || traced) {
		return fmt.Errorf("-record needs an untraced run with the default seed %d", defaultSeed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	prov := hostProvenance(root, seed)
	fmt.Println("provenance:", prov)
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build", "tmp"), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set up setupRepeats times and keep the last state.
	var st runState
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC() // start each set-up without the previous one's garbage
		t0 := time.Now()
		st, err = w.setup(ctx, seed, dir, seconds)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	plain, err := st.plain(ctx)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	rep := report{Workload: name, Seed: seed, Trace: traced, Provenance: prov, Setups: setups}
	rep.Attempted = plain.attempted()
	failures := checkOutputs(w.name, st, root, seed, plain)
	var metrics map[string]float64
	if !traced {
		metrics = endToEndValues(setups, plain)
	} else {
		rec := newRecorder()
		tr, err := st.traced(ctx, rec)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		if diff := diffOutputs(plain, tr); diff != "" {
			return fmt.Errorf("traced run drifted from the untraced run (the mirror no longer matches flow): %s", diff)
		}
		metrics = perLayerValues(rec, plain, tr, st)
		if nd := checkCounters(root, name, seed, seconds, prov.SourceHash, metrics); nd != "" {
			failures["counters"] = "nondeterminism: " + nd
		}
		rep.Spans, rep.SelfTimes = rec.spans, rec.selfTimes()
	}
	if record {
		if err := writeExpected(root, name, plain); err != nil {
			return err
		}
	}
	rep.Failed = len(failures)
	rep.Failures = failures
	rep.Correct = len(failures) == 0
	rep.Metrics = metrics
	rep.Latency = plain.latency
	rep.TailPct, _ = tail(values(plain.latency))
	rep.Samples = len(plain.latency)
	if err := rep.write(root); err != nil {
		return err
	}
	for _, k := range sortedKeys(failures) {
		fmt.Printf("FAIL %s: %s\n", k, failures[k])
	}
	fmt.Printf("job_tail_s is p%g of %d samples\n", rep.TailPct, rep.Samples)
	return printResult(rep, traced)
}

// endToEndValues computes the user-visible metrics of an untraced run.
func endToEndValues(setups []float64, out *runOut) map[string]float64 {
	lat := values(out.latency)
	_, tailV := tail(lat)
	// An operation's done time counts from its submission: a sweep submits
	// every cell at its start, a daemon client submits each job by POST.
	// So cell_done_p50_s and job_p50_s are the same figure, named for the
	// cells of paper-b14 and the jobs of daemon-mix.
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss is in KiB on Linux
	return map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          out.wall,
		"cell_done_p50_s": median(lat),
		"job_p50_s":       median(lat),
		"job_tail_s":      tailV,
		"jobs_per_s":      float64(len(out.outputs)) / out.wall,
		"peak_rss_mb":     float64(ru.Maxrss) / 1024,
	}
}

// diffOutputs names the first operation whose traced output differs.
func diffOutputs(plain, tr *runOut) string {
	for _, k := range sortedKeys(plain.outputs) {
		if got, ok := tr.outputs[k]; !ok {
			return fmt.Sprintf("%s: missing from the traced run (%s)", k, tr.failed[k])
		} else if string(got) != string(plain.outputs[k]) {
			return fmt.Sprintf("%s: %s vs %s", k, got, plain.outputs[k])
		}
	}
	if len(tr.outputs) != len(plain.outputs) {
		return fmt.Sprintf("traced run produced %d outputs, untraced %d", len(tr.outputs), len(plain.outputs))
	}
	return ""
}

func values(m map[string]float64) []float64 {
	vs := make([]float64, 0, len(m))
	for _, v := range m {
		vs = append(vs, v)
	}
	return vs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report is everything one invocation measured; it is written to
// .bench_build/results/ and its summary is the last stdout line.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   map[string]string  `json:"failures,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Setups     []float64          `json:"setups_s"`
	TailPct    float64            `json:"job_tail_percentile"`
	Samples    int                `json:"job_latency_samples"`
	Latency    map[string]float64 `json:"latency_s"`
	SelfTimes  map[string]float64 `json:"self_times_s,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

func (r report) write(root string) error {
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.Trace {
		mode = "trace"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, mode)), b, 0o644)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line: the declared metric set of the
// run's kind, each with its unit.
func printResult(r report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
