// Command tables regenerates every table and figure of the paper's
// evaluation (Sec. IV) on the synthetic benchmark suite:
//
//	tables -table 1        Table I   (CCR, ITC'99, split at M4/M6)
//	tables -table 2        Table II  (HD/OER, ITC'99)
//	tables -table 3        Table III (prior art vs proposed, ISCAS)
//	tables -table f6       Footnote 6 (logical CCR without post-processing)
//	tables -fig 5          Fig. 5    (layout cost: prelift / M4 / M6)
//	tables -ideal          Sec. IV-A ideal proximity attack
//	tables -all            everything
//
// All of them run through flow's one cell loop: a failed cell never
// stops the others, and the run exits 1 naming every failure in order.
//
// Scale and pattern counts default to values that finish in minutes;
// raise -scale/-patterns/-runs to approach the paper's full setup. A
// full-paper-scale run of one benchmark, e.g.
//
//	tables -table 1 -scale 1.0 -patterns 1048576 -benchmarks b14
//
// is practical on a laptop, and -benchmarks restricts the suite so a
// single circuit can be studied at full size. At 1.0 scale every
// ITC'99 design is over the flow's fixed 4000-gate LEC limit (a
// constant, with no flag), so the Fig. 3
// equivalence step runs as 65,536-pattern random simulation, not as a
// SAT proof; the ROADMAP's cone-local LEC item tracks the proof. Below
// that limit the LEC step runs one SAT solver: it only has to return a
// verdict, and no table cell stores anything the solver computes.
//
// Long sweeps are crash-safe: -manifest checkpoints every completed
// benchmark×layer cell to an atomically updated JSON file, SIGINT or
// SIGTERM cancels cleanly (exit 130, manifest flushed), and -resume
// picks the sweep back up, recomputing only the missing cells — the
// resumed table is byte-identical to an uninterrupted run. -jobtimeout
// bounds each job.
//
// The Table I/II sweep can also be distributed across OS processes:
// -workers N leases cells to N local worker slots, each attempt of a
// cell a fresh worker process, and -connect host:port,... additionally
// (or instead) leases them to remote splitlockd daemons, one slot per
// address. A worker that crashes, hangs, or returns garbage has its
// lease expired and the cell reassigned with backoff; a cell that keeps
// killing workers is quarantined after -crashbudget deaths and recorded
// on its row without stopping the sweep; a cell a daemon refuses (a
// 4xx answer, e.g. a -scale it will not run) fails with the daemon's
// reason. The final table and manifest are byte-identical to a
// single-process run at any worker count. -faultpoints list prints
// the fault-injection sites compiled into this binary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bmarks"
	"repro/internal/dispatch"
	"repro/internal/faultpoint"
	"repro/internal/flow"
	"repro/internal/runmanifest"
)

func main() {
	var (
		table      = flag.String("table", "", "table to regenerate: 1, 2, 3 or f6")
		fig        = flag.Int("fig", 0, "figure to regenerate: 5")
		ideal      = flag.Bool("ideal", false, "run the ideal proximity attack experiment")
		all        = flag.Bool("all", false, "regenerate everything")
		scale      = flag.Float64("scale", 0.1, "ITC'99 benchmark scale (1.0 = published size)")
		keyBits    = flag.Int("keybits", 128, "key size")
		patterns   = flag.Int("patterns", 1<<16, "HD/OER simulation patterns (paper: 1M)")
		runs       = flag.Int("runs", 2000, "ideal-attack runs (paper: 1M)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		parallel   = flag.Bool("parallel", true, "run benchmarks concurrently")
		benchSel   = flag.String("benchmarks", "", "comma-separated benchmark subset (default: the full suite of the selected table); e.g. -benchmarks b14 for a single full-scale run")
		jobTimeout = flag.Duration("jobtimeout", 0, "per-cell deadline for Table I/II jobs; a blown deadline is recorded on that cell and the others keep running (0 = none)")
		manifestP  = flag.String("manifest", "", "checkpoint file for the Table I/II sweep: every completed cell is flushed there atomically")
		resume     = flag.Bool("resume", false, "load -manifest and skip cells it already holds (the file must match this configuration)")

		workerMode  = flag.Bool("worker", false, "serve one dispatched cell: read its spec on stdin, stream the worker protocol to stdout (spawned by a -workers coordinator; not for interactive use)")
		workerID    = flag.Int("workerid", 0, "worker identity of this attempt under -worker (assigned by the coordinator)")
		workers     = flag.Int("workers", 0, "distribute the Table I/II sweep across this many local worker processes")
		connectSel  = flag.String("connect", "", "comma-separated splitlockd addresses (host:port or URL) to lease Table I/II cells to as remote workers")
		leaseT      = flag.Duration("leasetimeout", 15*time.Second, "expire a cell lease whose worker has not heartbeat for this long; the cell is reassigned")
		crashBudget = flag.Int("crashbudget", 3, "quarantine a cell after it kills this many workers (recorded on its row; the sweep continues)")
		faultSel    = flag.String("faultpoints", "", "'list' prints every REPRO_FAULTPOINTS site compiled into this binary, then exits")
	)
	flag.Parse()
	if *faultSel != "" {
		if *faultSel != "list" {
			fmt.Fprintf(os.Stderr, "tables: -faultpoints %q unsupported (want 'list')\n", *faultSel)
			os.Exit(2)
		}
		printFaultpoints()
		return
	}
	if *workerMode {
		// Worker processes speak the dispatch protocol on stdout; nothing
		// else may be printed there, so this branch exits before any of
		// the table rendering below can run.
		if err := runWorker(*workerID, *jobTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "tables worker %d: %v\n", *workerID, err)
			os.Exit(1)
		}
		return
	}
	splitList := func(s string) []string {
		var out []string
		for _, v := range strings.Split(s, ",") {
			if v = strings.TrimSpace(v); v != "" {
				out = append(out, v)
			}
		}
		return out
	}
	benches := splitList(*benchSel)

	start := time.Now()
	any := false
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}

	// Fail fast on a run count the ideal attack refuses or a design the
	// daemons would refuse (flow.ValidateDesign, applied to every
	// selected benchmark: a benchmark typo, a pattern count the
	// simulator refuses): at full scale a sweep runs for hours, and
	// such errors must not surface after that.
	if *runs < 1 {
		fail(fmt.Errorf("-runs %d, want at least 1", *runs))
	}
	selected := benches
	if len(selected) == 0 {
		selected = bmarks.Names()
	}
	for _, b := range selected {
		if err := flow.ValidateDesign(b, *scale, *keyBits, *patterns); err != nil {
			fail(err)
		}
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// interrupted reports a clean cancellation: completed cells are
	// already flushed to the manifest, so a -resume run continues from
	// exactly here. Exit code 130 mirrors shell convention for SIGINT.
	interrupted := func(m *runmanifest.Manifest) {
		if ctx.Err() == nil {
			return
		}
		msg := "tables: interrupted"
		if m != nil && m.Path() != "" {
			msg = fmt.Sprintf("tables: interrupted; manifest flushed to %s (%d cells done) — rerun with -resume to continue",
				m.Path(), m.Len())
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(130)
	}

	if *resume && *manifestP == "" {
		fail(errors.New("-resume needs -manifest"))
	}

	distributed := *workers > 0 || *connectSel != ""
	if distributed && !(*all || *table == "1" || *table == "2" || *table == "f6") {
		fail(errors.New("-workers/-connect distribute the Table I/II sweep; combine them with -table 1, 2, f6 or -all"))
	}

	if *all || *table == "1" || *table == "2" || *table == "f6" {
		any = true
		manifest, err := openManifest(*manifestP, *resume, runmanifest.Fingerprint{
			Experiment: "itc",
			Scale:      *scale, KeyBits: *keyBits, Patterns: *patterns, Seed: *seed,
			SplitLayers: []int{4, 6},
			Benchmarks:  benches,
		})
		if err != nil {
			fail(err)
		}
		itcOpt := flow.ITCOptions{
			Benchmarks: benches,
			Scale:      *scale, KeyBits: *keyBits, Patterns: *patterns,
			Seed: *seed, Parallel: *parallel,
			JobTimeout: *jobTimeout,
			Manifest:   manifest,
		}
		var coord *dispatch.Coordinator
		if distributed {
			coord, err = newCoordinator(*workers, splitList(*connectSel), *jobTimeout,
				dispatch.Options{LeaseTimeout: *leaseT, CrashBudget: *crashBudget})
			if err != nil {
				fail(err)
			}
			itcOpt.CellRunner = flow.DispatchRunner(coord, itcOpt)
		}
		rows, err := flow.RunITC(ctx, itcOpt)
		if coord != nil {
			// Kill and reap the worker processes still in flight (an
			// interrupted sweep leaves some) before any exit below.
			coord.Close()
		}
		interrupted(manifest)
		if *all || *table == "1" {
			printTableI(rows)
		}
		if *all || *table == "2" {
			printTableII(rows)
		}
		if *all || *table == "f6" {
			printFootnote6(rows)
		}
		if err != nil {
			// The error joins every failed benchmark×layer job in row
			// order (rows annotate them individually), so the partial
			// table above never renders silently.
			fail(err)
		}
	}
	if *all || *table == "3" {
		any = true
		rows, err := flow.RunISCAS(ctx, flow.ISCASOptions{
			Benchmarks: benches,
			KeyBits:    *keyBits, Patterns: *patterns, Seed: *seed, Parallel: *parallel,
		})
		interrupted(nil)
		if err != nil {
			fail(err)
		}
		printTableIII(rows)
	}
	if *all || *fig == 5 {
		any = true
		rows, err := flow.RunFig5(ctx, flow.Fig5Options{
			Benchmarks: benches,
			Scale:      *scale, KeyBits: *keyBits, Seed: *seed, Parallel: *parallel,
		})
		interrupted(nil)
		if err != nil {
			fail(err)
		}
		printFig5(rows)
	}
	if *all || *ideal {
		any = true
		rows, err := flow.RunIdeal(ctx, flow.IdealOptions{
			Benchmarks: benches,
			Scale:      *scale, KeyBits: *keyBits, Runs: *runs, Seed: *seed,
		})
		interrupted(nil)
		fmt.Println("\n== Ideal proximity attack (Sec. IV-A): regular nets granted, key-nets guessed ==")
		for _, r := range rows {
			if r.Benchmark != "" { // a failed design's row stays zero
				fmt.Printf("%-6s runs=%-8d OER=%6.2f%%  full-key recoveries=%d\n",
					r.Benchmark, r.Runs, r.OERPercent(), r.FullKeyRecoveries)
			}
		}
		if err != nil {
			fail(err)
		}
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// openManifest resolves the checkpoint for the Table I/II sweep: nil
// when -manifest is unset, the loaded file under -resume (it must exist
// and match the current configuration up to the benchmark axis), or a
// fresh manifest otherwise.
func openManifest(path string, resume bool, fp runmanifest.Fingerprint) (*runmanifest.Manifest, error) {
	if path == "" {
		return nil, nil
	}
	if len(fp.Benchmarks) == 0 {
		fp.Benchmarks = bmarks.ITC99Names()
	}
	if !resume {
		return runmanifest.New(path, fp), nil
	}
	m, err := runmanifest.Load(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// First run of a sweep that plans to resume later.
			return runmanifest.New(path, fp), nil
		}
		return nil, err
	}
	if cerr := fp.CompatibleWith(m.Fingerprint()); cerr != nil {
		return nil, fmt.Errorf("manifest %s was written under a different configuration (%v); delete it or fix the flags", path, cerr)
	}
	fmt.Printf("resuming from %s: %d cells already complete\n", path, m.Len())
	return m, nil
}

// runWorker serves one attempt of one dispatched cell: it reads the
// CellSpec as JSON on stdin and writes the protocol stream to stdout.
// jobTimeout is a worker-local knob; everything that affects a cell's
// result arrives in the CellSpec, so the printed table is independent
// of which worker computed which cell.
func runWorker(id int, jobTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var spec dispatch.CellSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		return fmt.Errorf("reading the cell spec: %w", err)
	}
	return dispatch.ServeCell(ctx, os.Stdout, spec, dispatch.WorkerOptions{
		ID:  id,
		Run: flow.DispatchCellFunc(flow.ITCOptions{JobTimeout: jobTimeout}),
	})
}

// newCoordinator adds the worker slots to opt and starts the
// coordinator: workers local slots, each attempt a fresh process
// re-executing this binary in -worker mode under jobTimeout, plus one
// slot per connect daemon.
func newCoordinator(workers int, connect []string, jobTimeout time.Duration, opt dispatch.Options) (*dispatch.Coordinator, error) {
	if workers > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("cannot locate own binary to spawn workers: %w", err)
		}
		// Workers inherit this process's environment (REPRO_FAULTPOINTS
		// included — per-worker fault sites key off the -workerid that
		// ProcTransport appends).
		local := dispatch.ProcTransport([]string{exe, "-worker", "-jobtimeout", jobTimeout.String()}, nil)
		for i := 0; i < workers; i++ {
			opt.Slots = append(opt.Slots, dispatch.Slot{Name: "local", Open: local})
		}
	}
	for _, target := range connect {
		url := target
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		opt.Slots = append(opt.Slots, dispatch.Slot{Name: url, Open: dispatch.HTTPTransport(url)})
	}
	opt.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tables: "+format+"\n", args...)
	}
	return dispatch.New(opt)
}

// printFaultpoints lists every Describe'd fault site linked into this
// binary alongside the REPRO_FAULTPOINTS grammar, so injectable
// failures are discoverable without reading source.
func printFaultpoints() {
	fmt.Println("REPRO_FAULTPOINTS arms fault-injection sites for crash testing:")
	fmt.Println()
	fmt.Println("  REPRO_FAULTPOINTS='name:action;name:after=N:action' tables ...")
	fmt.Println()
	fmt.Println("actions: panic | exit=CODE | stall=DURATION; after=N fires on the")
	fmt.Println("N'th hit. Dispatch worker sites are also hit as 'site#<workerid>'")
	fmt.Println("(one attempt: every attempt of a cell runs under a fresh worker id,")
	fmt.Println("so a retry is never re-hit) and 'site@<bench>/M<layer>' (one")
	fmt.Println("specific cell).")
	fmt.Println()
	fmt.Println("sites compiled into this binary:")
	for _, s := range faultpoint.Sites() {
		fmt.Printf("  %-32s %s\n", s.Name, s.Doc)
	}
}

// itcLayers are the split layers of Tables I/II and footnote 6, in
// column order.
var itcLayers = [2]int{4, 6}

// failedCell stands in for every value of a benchmark×layer cell that
// failed; the Avg row leaves such cells out.
const failedCell = "failed"

// layerCells formats one layer's values with format (width 8), or the
// failed marker in each of their columns when ok is false.
func layerCells(format string, ok bool, vals ...float64) string {
	cols := make([]string, len(vals))
	for i, v := range vals {
		if ok {
			cols[i] = fmt.Sprintf(format, v)
		} else {
			cols[i] = fmt.Sprintf("%8s", failedCell)
		}
	}
	return strings.Join(cols, " ")
}

// itcTable prints one row per benchmark and an Avg row: values(res)
// gives a layer's columns, printed ×100 with format, sep separates the
// layers, and avg(sum, n) turns a column's sum over n cells into its
// printed average. A failed cell prints the failed marker and is left
// out of its layer's average; the Avg row is left out when every cell
// failed.
func itcTable(rows []flow.ITCRow, format, sep string, values func(flow.SplitResult) []float64, avg func(sum float64, n int) float64) {
	var sums [len(itcLayers)][]float64
	var counts [len(itcLayers)]int
	line := func(name string, cells [len(itcLayers)]string) {
		fmt.Printf("%-6s | %s\n", name, strings.Join(cells[:], sep))
	}
	for _, r := range rows {
		var cells [len(itcLayers)]string
		for li, l := range itcLayers {
			res, ok := r.Results[l]
			vals := values(res)
			if ok {
				if sums[li] == nil {
					sums[li] = make([]float64, len(vals))
				}
				for i, v := range vals {
					sums[li][i] += v
				}
				counts[li]++
			}
			scaled := make([]float64, len(vals))
			for i, v := range vals {
				scaled[i] = v * 100
			}
			cells[li] = layerCells(format, ok, scaled...)
		}
		line(r.Benchmark, cells)
	}
	if counts[0]+counts[1] == 0 {
		return
	}
	var cells [len(itcLayers)]string
	width := len(values(flow.SplitResult{}))
	for li := range itcLayers {
		avgs := make([]float64, width)
		for i, v := range sums[li] {
			avgs[i] = avg(v, counts[li])
		}
		cells[li] = layerCells(format, counts[li] > 0, avgs...)
	}
	line("Avg", cells)
}

// percentAvg is Table I's and II's average of n fractions, in percent.
func percentAvg(sum float64, n int) float64 { return sum * (100 / float64(n)) }

func printTableI(rows []flow.ITCRow) {
	fmt.Println("\n== Table I: CCR (%) for ITC'99 benchmarks split at M4 and M6 ==")
	fmt.Printf("%-6s | %8s %8s %8s | %8s %8s %8s\n", "", "M4", "", "", "M6", "", "")
	fmt.Printf("%-6s | %8s %8s %8s | %8s %8s %8s\n",
		"Bench", "KeyLog", "KeyPhys", "Regular", "KeyLog", "KeyPhys", "Regular")
	itcTable(rows, "%8.0f", " | ", func(r flow.SplitResult) []float64 {
		return []float64{r.CCR.KeyLogical, r.CCR.KeyPhysical, r.CCR.Regular}
	}, percentAvg)
	fmt.Println("paper: key-net logical ≈51/54, physical ≈0/1, regular ≈15/32 (M4/M6)")
}

func printTableII(rows []flow.ITCRow) {
	fmt.Println("\n== Table II: HD and OER (%) for ITC'99 benchmarks split at M4/M6 ==")
	fmt.Printf("%-6s | %8s %8s | %8s %8s\n", "Bench", "HD(M4)", "OER(M4)", "HD(M6)", "OER(M6)")
	itcTable(rows, "%8.0f", " | ", func(r flow.SplitResult) []float64 {
		return []float64{r.HD, r.OER}
	}, percentAvg)
	fmt.Println("paper: HD ≈53 (M4) / 25 (M6), OER = 100 everywhere")
}

func printFootnote6(rows []flow.ITCRow) {
	fmt.Println("\n== Footnote 6: key-net logical CCR (%) without key post-processing ==")
	fmt.Printf("%-6s | %8s %8s\n", "Bench", "M4", "M6")
	itcTable(rows, "%8.1f", " ", func(r flow.SplitResult) []float64 {
		return []float64{r.LogicalNoPost}
	}, func(sum float64, n int) float64 { return sum / float64(n) * 100 })
	fmt.Println("paper: 17.6 (M4) / 29.3 (M6) — dropping well below 50%")
}

func printTableIII(rows []flow.ISCASRow) {
	fmt.Println("\n== Table III: PNR / CCR / HD / OER (%) on ISCAS split at M4 ==")
	fmt.Printf("%-6s", "Bench")
	for _, s := range flow.SchemeNames() {
		fmt.Printf(" | %-9s PNR  CCR   HD  OER", s)
	}
	fmt.Println()
	avg := map[string]*flow.SchemeResult{}
	for _, s := range flow.SchemeNames() {
		avg[s] = &flow.SchemeResult{}
	}
	for _, r := range rows {
		fmt.Printf("%-6s", r.Benchmark)
		for _, s := range flow.SchemeNames() {
			v := r.Schemes[s]
			fmt.Printf(" | %9s %4.0f %4.0f %4.0f %4.0f", "", v.PNR*100, v.CCR*100, v.HD*100, v.OER*100)
			avg[s].PNR += v.PNR
			avg[s].CCR += v.CCR
			avg[s].HD += v.HD
			avg[s].OER += v.OER
		}
		fmt.Println()
	}
	if len(rows) > 0 {
		f := 100 / float64(len(rows))
		fmt.Printf("%-6s", "Avg")
		for _, s := range flow.SchemeNames() {
			fmt.Printf(" | %9s %4.0f %4.0f %4.0f %4.0f", "", avg[s].PNR*f, avg[s].CCR*f, avg[s].HD*f, avg[s].OER*f)
		}
		fmt.Println()
	}
	fmt.Println("columns per scheme: PNR, CCR, HD, OER; CCR for 'proposed' is key-net physical CCR")
	fmt.Println("paper averages: [22] 88/73/29/100, [12] 30/0/41/100, [13] –/0/42/100, proposed 28/1/43/100")
}

func printFig5(rows []flow.Fig5Row) {
	fmt.Println("\n== Fig. 5: layout cost (%) vs unprotected baseline ==")
	fmt.Printf("%-6s | %-22s | %-22s | %-22s\n", "", "Prelift", "Split M4", "Split M6")
	fmt.Printf("%-6s | %6s %7s %7s | %6s %7s %7s | %6s %7s %7s\n",
		"Bench", "Area", "Power", "Timing", "Area", "Power", "Timing", "Area", "Power", "Timing")
	var pre, m4, m6 []flow.CostDelta
	for _, r := range rows {
		fmt.Printf("%-6s | %6.1f %7.1f %7.1f | %6.1f %7.1f %7.1f | %6.1f %7.1f %7.1f\n", r.Benchmark,
			r.Prelift.Area, r.Prelift.Power, r.Prelift.Timing,
			r.M4.Area, r.M4.Power, r.M4.Timing,
			r.M6.Area, r.M6.Power, r.M6.Timing)
		pre = append(pre, r.Prelift)
		m4 = append(m4, r.M4)
		m6 = append(m6, r.M6)
	}
	box := func(name string, ds []flow.CostDelta, pick func(flow.CostDelta) float64) {
		var xs []float64
		for _, d := range ds {
			xs = append(xs, pick(d))
		}
		q := flow.ComputeQuartiles(xs)
		fmt.Printf("  %-16s min %6.1f  Q1 %6.1f  med %6.1f  Q3 %6.1f  max %6.1f\n",
			name, q.Min, q.Q1, q.Median, q.Q3, q.Max)
	}
	fmt.Println("box-plot series (as in the figure):")
	for _, g := range []struct {
		name string
		ds   []flow.CostDelta
	}{{"Prelift", pre}, {"M4", m4}, {"M6", m6}} {
		box(g.name+" area", g.ds, func(d flow.CostDelta) float64 { return d.Area })
		box(g.name+" power", g.ds, func(d flow.CostDelta) float64 { return d.Power })
		box(g.name+" timing", g.ds, func(d flow.CostDelta) float64 { return d.Timing })
	}
	fmt.Println("paper medians: prelift area ≈ −12.75, power ≈ +7.7, timing ≈ +6.4;")
	fmt.Println("               M4 area ≈ −10.1, power ≈ +20.3, timing ≈ +6.3; M6 area ≈ −8.8, power ≈ +15.5, timing ≈ +6.5")
}
