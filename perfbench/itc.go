package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/flow"
	"repro/internal/layout"
	"repro/internal/lec"
	"repro/internal/locking"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/split"
)

// paper-b14 is the paper's own Table I/II cell configuration: full-size
// b14 with a 128-bit key, split at M4 and M6, the two cells run
// concurrently by flow.RunITC with the cmd/tables settings.
const (
	itcBench         = "b14"
	itcScale         = 1.0
	itcPatterns      = 1 << 20
	itcKeyBits       = 128
	itcSolverWorkers = 2 // the cmd/tables -satworkers default
	// lecGateLimit and equivSimPatterns mirror flow's Fig. 3 LEC step:
	// SAT-based LEC up to this size, random simulation above it.
	lecGateLimit     = 4000
	equivSimPatterns = 1 << 16
	flowUtilization  = 0.7 // flow.Config's placement density default
)

var itcLayers = []int{4, 6}

type itcState struct {
	seed uint64
}

// setupPaperB14 generates the design once (warming the generator and
// allocator) and runs one small cell end to end so the timed sweep
// starts with every code path loaded.
func setupPaperB14(ctx context.Context, seed uint64, _ string, _ int) (runState, error) {
	if _, err := bmarks.Load(itcBench, itcScale); err != nil {
		return nil, err
	}
	if _, err := flow.RunITC(ctx, flow.ITCOptions{
		Benchmarks: []string{itcBench}, Scale: 0.05, KeyBits: 32, Patterns: 1 << 12,
		Seed: warmUpSeed, SplitLayers: []int{4}, SolverWorkers: itcSolverWorkers,
	}); err != nil {
		return nil, fmt.Errorf("warm-up cell: %w", err)
	}
	return &itcState{seed: seed}, nil
}

func (s *itcState) close() {}

func (s *itcState) check(key string, b []byte) error { return checkCell(b) }

func (s *itcState) options() flow.ITCOptions {
	return flow.ITCOptions{
		Benchmarks:    []string{itcBench},
		Scale:         itcScale,
		KeyBits:       itcKeyBits,
		Patterns:      itcPatterns,
		Seed:          s.seed,
		SplitLayers:   itcLayers,
		Parallel:      true,
		SolverWorkers: itcSolverWorkers,
	}
}

// plain runs the sweep through flow.RunITC. Cell completion is timed
// with ITCOptions.Progress, which RunITC calls as each cell finishes.
func (s *itcState) plain(ctx context.Context) (*runOut, error) {
	opt := s.options()
	out := newRunOut()
	start := time.Now()
	// RunITC starts every cell at sweep start, so a cell's latency is its
	// completion time.
	opt.Progress = func(key string, _, _ int) {
		out.latency[key] = time.Since(start).Seconds()
	}
	rows, err := flow.RunITC(ctx, opt)
	out.wall = time.Since(start).Seconds()
	if err != nil && ctx.Err() != nil {
		return nil, err
	}
	for _, row := range rows {
		for _, l := range itcLayers {
			key := flow.ITCCellKey(row.Benchmark, l)
			if cerr, ok := row.Errors[l]; ok {
				out.failed[key] = cerr.Error()
				continue
			}
			res, ok := row.Results[l]
			if !ok {
				out.failed[key] = "missing from the sweep"
				continue
			}
			b, merr := json.Marshal(res)
			if merr != nil {
				return nil, merr
			}
			out.outputs[key] = b
		}
	}
	return out, nil
}

// traced runs the same sweep with every layer called directly from here,
// in the order and with the arguments of flow.Run and RunITC's cell
// (runOneITC), at the same concurrency, with a span around each call.
func (s *itcState) traced(ctx context.Context, rec *recorder) (*runOut, error) {
	opt := s.options()
	// RunITC's default split of the simulation pool across parallel cells.
	simWorkers := max(1, runtime.GOMAXPROCS(0)/len(itcLayers))
	out := newRunOut()
	var mu sync.Mutex
	start := time.Now()
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)) // RunITC's cap on concurrent cells
	var wg sync.WaitGroup
	for _, layer := range itcLayers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			key := flow.ITCCellKey(itcBench, layer)
			res, err := tracedCell(ctx, rec, itcBench, layer, opt, simWorkers)
			var b []byte
			if err == nil {
				b, err = json.Marshal(res)
			}
			mu.Lock()
			if err != nil {
				out.failed[key] = err.Error()
			} else {
				out.outputs[key] = b
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// tracedCell is RunITC's cell computation (bmarks.Load, then flow.Run's
// lock → LEC → place → route → split, then the proximity attack, CCR,
// HD/OER simulation and the raw attack), layer by layer.
func tracedCell(ctx context.Context, rec *recorder, bench string, layer int, opt flow.ITCOptions, simWorkers int) (flow.SplitResult, error) {
	key := flow.ITCCellKey(bench, layer)
	cell := rec.begin(key, "flow.cell", -1)
	defer rec.end(cell)
	stage := func(name string, f func() error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := rec.begin(key, name, cell)
		defer rec.end(id)
		return f()
	}
	seed := opt.Seed + uint64(layer)*1000 // flow.Config.Seed of the cell
	var (
		orig   *netlist.Circuit
		lk     *locking.Locked
		rep    *locking.ATPGLockReport
		lay    *layout.Layout
		routes *route.Result
		view   *split.FEOLView
		secret *split.Secret
		res    = flow.SplitResult{SplitLayer: layer}
		asg    attack.Assignment
		rawAsg attack.Assignment
	)
	err := stage("bmarks.load", func() (err error) {
		orig, err = bmarks.Load(bench, opt.Scale)
		return err
	})
	if err == nil {
		err = stage("locking.atpg_lock", func() (err error) {
			lk, rep, err = locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: opt.KeyBits, Seed: seed})
			return err
		})
	}
	if err == nil {
		rec.add("locking.removed_gates", float64(rep.RemovedGates))
		err = verifyTraced(rec, key, cell, orig, lk.Circuit, seed, opt.SolverWorkers)
	}
	// flow.Run's layout stage: place with randomized TIE cells, route
	// with key-nets lifted above the split layer, split.
	if err == nil {
		err = stage("place.place", func() (err error) {
			lay, err = place.Place(lk.Circuit, place.Options{Seed: seed + 1, Utilization: flowUtilization, RandomizeTies: true})
			return err
		})
	}
	if err == nil {
		err = stage("route.route", func() (err error) {
			routes, err = route.RouteAll(lay, route.Options{SplitLayer: layer, LiftKeyNets: true})
			return err
		})
	}
	if err == nil {
		err = stage("split.split", func() (err error) {
			view, secret, err = split.Split(lay, routes)
			return err
		})
	}
	if err == nil {
		rec.add("route.vias", float64(routes.TotalVias))
		rec.add("route.cut_pins", float64(len(view.CutPins)))
		err = stage("attack.proximity", func() (err error) {
			asg, err = attack.Proximity(view, attack.ProximityOptions{Seed: opt.Seed + 7, KeyPostProcess: true})
			return err
		})
	}
	if err == nil {
		rec.add("attack.proximity_pins", float64(len(view.CutPins)))
		res.CCR = metrics.ComputeCCR(view, secret, asg)
		err = stage("sim.hdoer", func() error {
			d, err := metrics.FunctionalOpt(orig, view, asg, sim.CompareOptions{
				Patterns: opt.Patterns, Seed: opt.Seed + 8, Workers: simWorkers,
			})
			res.HD, res.OER = d.HD, d.OER
			return err
		})
	}
	if err == nil {
		rec.add("sim.hdoer_patterns", float64(opt.Patterns))
		err = stage("attack.proximity_raw", func() (err error) {
			rawAsg, err = attack.Proximity(view, attack.ProximityOptions{Seed: opt.Seed + 7})
			return err
		})
	}
	if err != nil {
		return flow.SplitResult{}, err
	}
	rec.add("attack.proximity_pins", float64(len(view.CutPins)))
	res.LogicalNoPost = metrics.ComputeCCR(view, secret, rawAsg).KeyLogical
	return res, nil
}

// verifyTraced is flow's verifyEquivalence: SAT-based LEC up to
// lecGateLimit gates, 65,536-pattern simulation above it.
func verifyTraced(rec *recorder, key string, parent int, orig, locked *netlist.Circuit, seed uint64, solverWorkers int) error {
	if orig.NumGates() <= lecGateLimit {
		id := rec.begin(key, "lec.check", parent)
		res, err := lec.Check(orig, locked, lec.Options{
			Seed: seed, PortfolioWorkers: solverWorkers, PortfolioDeterministic: true,
		})
		rec.end(id)
		if err != nil {
			return fmt.Errorf("LEC: %w", err)
		}
		if !res.Equivalent {
			return fmt.Errorf("LEC rejected the locked netlist")
		}
		addLECStats(rec, &res.Stats)
		return nil
	}
	id := rec.begin(key, "sim.equiv", parent)
	eq, err := sim.EquivalentOpt(orig, locked, sim.CompareOptions{Patterns: equivSimPatterns, Seed: seed})
	rec.end(id)
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("locked netlist diverges from the original under simulation")
	}
	return nil
}

func addLECStats(rec *recorder, st *lec.Stats) {
	rec.add("lec.aig_nodes", float64(st.AIGNodes))
	rec.add("lec.sweep_merges", float64(st.SweepMerges))
	rec.add("lec.sat_pairs", float64(st.SATPairs))
	rec.add("lec.problem_clauses", float64(st.ProblemClauses))
}
