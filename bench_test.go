// Package repro hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Sec. IV). Each benchmark
// runs the corresponding experiment at a reduced default scale and
// reports the headline quantities as custom metrics, logging the rows
// the paper prints. cmd/tables produces the full formatted tables.
//
// Scale and pattern counts are chosen so the whole suite finishes in
// minutes; the experiments accept larger values (see cmd/tables flags)
// to approach the paper's setup (full-size ITC'99, 1M patterns/runs).
package repro

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/flow"
	"repro/internal/lec"
	"repro/internal/locking"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sim"
)

const (
	benchScale    = 0.05
	benchKeyBits  = 64
	benchPatterns = 1 << 13
	// benchSATScale sizes the solver-path benchmarks (LEC and SAT
	// attack): the paper's designs are full-size ITC'99 with 128-bit
	// keys; 0.1-scale b14 with a 64-bit key is the configuration whose
	// solver workload matches that shape while finishing in tens of
	// milliseconds.
	benchSATScale = 0.1
)

// BenchmarkTableI regenerates Table I: CCR for ITC'99 benchmarks split
// at M4 and M6 — key-net logical CCR pinned near 50%, physical CCR
// near 0, regular-net CCR higher at M6 than at M4.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := flow.RunITC(context.Background(), flow.ITCOptions{
			Benchmarks: []string{"b14", "b15"},
			Scale:      benchScale,
			KeyBits:    benchKeyBits,
			Patterns:   benchPatterns,
			Seed:       1,
			Parallel:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var kl4, kp4, rg4, kl6, rg6 float64
		for _, r := range rows {
			kl4 += r.Results[4].CCR.KeyLogical
			kp4 += r.Results[4].CCR.KeyPhysical
			rg4 += r.Results[4].CCR.Regular
			kl6 += r.Results[6].CCR.KeyLogical
			rg6 += r.Results[6].CCR.Regular
			b.Logf("Table I row %s: M4 key log/phys %.0f/%.0f%% reg %.0f%% | M6 key log %.0f%% reg %.0f%%",
				r.Benchmark,
				r.Results[4].CCR.KeyLogical*100, r.Results[4].CCR.KeyPhysical*100, r.Results[4].CCR.Regular*100,
				r.Results[6].CCR.KeyLogical*100, r.Results[6].CCR.Regular*100)
		}
		n := float64(len(rows))
		b.ReportMetric(kl4/n*100, "keyLogM4_%")
		b.ReportMetric(kp4/n*100, "keyPhysM4_%")
		b.ReportMetric(rg4/n*100, "regM4_%")
		b.ReportMetric(kl6/n*100, "keyLogM6_%")
		b.ReportMetric(rg6/n*100, "regM6_%")
	}
}

// BenchmarkTableII regenerates Table II: HD and OER of the
// attack-recovered netlists (paper: OER 100%, HD ≈53% at M4, dropping
// at M6).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := flow.RunITC(context.Background(), flow.ITCOptions{
			Benchmarks: []string{"b14", "b20"},
			Scale:      benchScale,
			KeyBits:    benchKeyBits,
			Patterns:   benchPatterns,
			Seed:       2,
			Parallel:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var hd4, oer4, hd6, oer6 float64
		for _, r := range rows {
			hd4 += r.Results[4].HD
			oer4 += r.Results[4].OER
			hd6 += r.Results[6].HD
			oer6 += r.Results[6].OER
			b.Logf("Table II row %s: M4 HD %.0f%% OER %.0f%% | M6 HD %.0f%% OER %.0f%%",
				r.Benchmark, r.Results[4].HD*100, r.Results[4].OER*100,
				r.Results[6].HD*100, r.Results[6].OER*100)
		}
		n := float64(len(rows))
		b.ReportMetric(hd4/n*100, "HD_M4_%")
		b.ReportMetric(oer4/n*100, "OER_M4_%")
		b.ReportMetric(hd6/n*100, "HD_M6_%")
		b.ReportMetric(oer6/n*100, "OER_M6_%")
	}
}

// BenchmarkPatternEngine isolates the shared pattern-simulation engine:
// one HD/OER comparison at Table II depth, serial (engine=off, the seed
// repo's inner loop) versus the full worker pool (engine=on). The
// reported stats are bit-identical; on a multi-core host the engine=on
// variant scales with GOMAXPROCS.
func BenchmarkPatternEngine(b *testing.B) {
	orig, err := bmarks.Load("b14", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	art, err := flow.Run(context.Background(), orig, flow.Config{KeyBits: benchKeyBits, SplitLayer: 4, Seed: 7, UseATPGLock: true})
	if err != nil {
		b.Fatal(err)
	}
	asg, err := attack.Proximity(art.View, attack.ProximityOptions{Seed: 7, KeyPostProcess: true})
	if err != nil {
		b.Fatal(err)
	}
	engineModes := []struct {
		name    string
		workers int
	}{
		{"engine=on", 0},
		{"engine=off", 1},
	}
	for _, mode := range engineModes {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := metrics.FunctionalOpt(orig, art.View, asg, sim.CompareOptions{
					Patterns: 1 << 17,
					Seed:     9,
					Workers:  mode.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(d.HD*100, "HD_%")
				b.ReportMetric(d.OER*100, "OER_%")
			}
		})
	}
}

// BenchmarkProximity isolates the Sec. IV-A proximity attack kernel on
// b14 x0.2 split at M4: "post" is the Table I/II pass with key
// post-processing, "raw" the footnote-6 pass without it, and "pair"
// both from one greedy search, as a Table I/II cell runs them.
// "paper-pair" runs the pair on paper-b14's M4 view (b14 x1.0, 128-bit
// key, lock seed 4001, proximity seed 8), the one case whose loop check
// reaches its node budget. regCCR_% is a deterministic check that the
// (post-processed) assignment itself did not move; stubsScored/pin is
// the candidate ranking's work, the driver stubs it scores per cut
// pin; loopNodes/pin the loop check's, the DFS nodes it expands per cut
// pin in one greedy pass; capHits the loop queries it answers "no
// loop" at the budget, and capHits/query their share of its queries.
func BenchmarkProximity(b *testing.B) {
	type view struct {
		art  *flow.Artifacts
		loop attack.LoopCheckWork
		// scoredPerPin is the candidate ranking's work per cut pin.
		scoredPerPin float64
	}
	load := func(b *testing.B, scale float64, keyBits int, seed uint64) view {
		orig, err := bmarks.Load("b14", scale)
		if err != nil {
			b.Fatal(err)
		}
		art, err := flow.Run(context.Background(), orig, flow.Config{KeyBits: keyBits, SplitLayer: 4, Seed: seed, UseATPGLock: true})
		if err != nil {
			b.Fatal(err)
		}
		return view{
			art:          art,
			loop:         attack.LoopCheck(art.View),
			scoredPerPin: float64(attack.ScoredStubs(art.View)) / float64(len(art.View.CutPins)),
		}
	}
	run := func(b *testing.B, v view, attackRun func() (attack.Assignment, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		var asg attack.Assignment
		var err error
		for i := 0; i < b.N; i++ {
			asg, err = attackRun()
			if err != nil {
				b.Fatal(err)
			}
		}
		pins := float64(len(v.art.View.CutPins))
		b.ReportMetric(pins*float64(b.N)/1e3/b.Elapsed().Seconds(), "kpins/s")
		b.ReportMetric(metrics.ComputeCCR(v.art.View, v.art.Secret, asg).Regular*100, "regCCR_%")
		b.ReportMetric(v.scoredPerPin, "stubsScored/pin")
		b.ReportMetric(float64(v.loop.Nodes)/pins, "loopNodes/pin")
		b.ReportMetric(float64(v.loop.CapHits), "capHits")
		b.ReportMetric(float64(v.loop.CapHits)/float64(v.loop.Queries), "capHits/query")
	}
	small := load(b, 0.2, benchKeyBits, 7)
	for _, mode := range []struct {
		name string
		run  func() (attack.Assignment, error)
	}{
		{"post", func() (attack.Assignment, error) {
			return attack.Proximity(small.art.View, attack.ProximityOptions{Seed: 7, KeyPostProcess: true})
		}},
		{"raw", func() (attack.Assignment, error) {
			return attack.Proximity(small.art.View, attack.ProximityOptions{Seed: 7})
		}},
		{"pair", func() (attack.Assignment, error) {
			post, _, err := attack.ProximityPair(small.art.View, attack.ProximityOptions{Seed: 7})
			return post, err
		}},
	} {
		b.Run(mode.name, func(b *testing.B) { run(b, small, mode.run) })
	}
	var paper *view // loaded on first use: only this case pays for b14 x1.0
	b.Run("paper-pair", func(b *testing.B) {
		if paper == nil {
			v := load(b, 1.0, 128, 4001)
			paper = &v
		}
		run(b, *paper, func() (attack.Assignment, error) {
			post, _, err := attack.ProximityPair(paper.art.View, attack.ProximityOptions{Seed: 8})
			return post, err
		})
	})
}

// BenchmarkCompare1M measures the wide-word simulation kernel head-on:
// one HD/OER comparison at the paper's 1M-pattern depth between b14 and
// a wrong-key locked copy (same boundary, nonzero HD), at each
// supported simulation width. The reported stats are bit-identical
// across widths; only the wall clock moves. planOps is the number of
// ops in the two compiled observed-cone plans, the deterministic work
// one pass of w×64 patterns evaluates. The x0.1 variants profile the
// solver-benchmark scale, the full-size ones the paper's Table II
// configuration.
func BenchmarkCompare1M(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		scale float64
	}{
		{"b14x0.1", benchSATScale},
		{"b14", 1.0},
	} {
		orig, err := bmarks.Load("b14", cfg.scale)
		if err != nil {
			b.Fatal(err)
		}
		lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: benchKeyBits, Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		wrong := locking.Key{Bits: make([]bool, len(lk.Key.Bits))}
		for i, v := range lk.Key.Bits {
			wrong.Bits[i] = !v
		}
		wc, err := lk.ApplyKey(wrong)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/width=%d", cfg.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d, err := sim.Compare(orig, wc, sim.CompareOptions{
						Patterns: 1 << 20, Seed: 9, Width: w, ObserveState: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(d.HD*100, "HD_%")
					b.ReportMetric(d.OER*100, "OER_%")
					b.ReportMetric(float64(d.PlanOps), "planOps")
				}
			})
		}
	}
}

// BenchmarkTableIII regenerates Table III: the prior-art defenses [22]
// [12] [13] versus the proposed scheme on ISCAS benchmarks at M4.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := flow.RunISCAS(context.Background(), flow.ISCASOptions{
			Benchmarks: []string{"c432", "c880", "c1355"},
			KeyBits:    benchKeyBits,
			Patterns:   benchPatterns,
			Seed:       3,
			Parallel:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		agg := map[string]*flow.SchemeResult{}
		for _, s := range flow.SchemeNames() {
			agg[s] = &flow.SchemeResult{}
		}
		for _, r := range rows {
			for _, s := range flow.SchemeNames() {
				v := r.Schemes[s]
				agg[s].PNR += v.PNR
				agg[s].CCR += v.CCR
				agg[s].HD += v.HD
				agg[s].OER += v.OER
			}
			b.Logf("Table III row %s: perturb22 CCR %.0f%%, lift12 CCR %.0f%%, proposed keyPhys CCR %.0f%% OER %.0f%%",
				r.Benchmark, r.Schemes["perturb22"].CCR*100, r.Schemes["lift12"].CCR*100,
				r.Schemes["proposed"].CCR*100, r.Schemes["proposed"].OER*100)
		}
		n := float64(len(rows))
		b.ReportMetric(agg["perturb22"].CCR/n*100, "CCR_perturb22_%")
		b.ReportMetric(agg["lift12"].CCR/n*100, "CCR_lift12_%")
		b.ReportMetric(agg["restore13"].CCR/n*100, "CCR_restore13_%")
		b.ReportMetric(agg["proposed"].CCR/n*100, "CCR_proposed_%")
		b.ReportMetric(agg["proposed"].OER/n*100, "OER_proposed_%")
	}
}

// BenchmarkFig5 regenerates the Fig. 5 layout cost study: area / power
// / timing deltas of the prelift, split-M4 and split-M6 layouts versus
// the unprotected baseline.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := flow.RunFig5(context.Background(), flow.Fig5Options{
			Benchmarks: []string{"b14", "b15", "b20"},
			Scale:      benchScale,
			KeyBits:    benchKeyBits,
			Seed:       4,
			Parallel:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var preA, m4P, m6P, m4T float64
		for _, r := range rows {
			preA += r.Prelift.Area
			m4P += r.M4.Power
			m6P += r.M6.Power
			m4T += r.M4.Timing
			b.Logf("Fig5 row %s: prelift %+.1f/%+.1f/%+.1f | M4 %+.1f/%+.1f/%+.1f | M6 %+.1f/%+.1f/%+.1f (area/power/timing %%)",
				r.Benchmark,
				r.Prelift.Area, r.Prelift.Power, r.Prelift.Timing,
				r.M4.Area, r.M4.Power, r.M4.Timing,
				r.M6.Area, r.M6.Power, r.M6.Timing)
		}
		n := float64(len(rows))
		b.ReportMetric(preA/n, "preliftArea_%")
		b.ReportMetric(m4P/n, "powerM4_%")
		b.ReportMetric(m6P/n, "powerM6_%")
		b.ReportMetric(m4T/n, "timingM4_%")
	}
}

// BenchmarkFootnote6 regenerates the footnote 6 ablation: logical CCR
// of the raw attack (no key post-processing) drops well below 50%.
func BenchmarkFootnote6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := flow.RunITC(context.Background(), flow.ITCOptions{
			Benchmarks: []string{"b14"},
			Scale:      benchScale,
			KeyBits:    benchKeyBits,
			Patterns:   1 << 10,
			Seed:       5,
			Parallel:   true,
		})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.Logf("footnote 6: raw logical CCR M4 %.1f%%, M6 %.1f%% (with post-processing: %.1f%%, %.1f%%)",
			r.Results[4].LogicalNoPost*100, r.Results[6].LogicalNoPost*100,
			r.Results[4].CCR.KeyLogical*100, r.Results[6].CCR.KeyLogical*100)
		b.ReportMetric(r.Results[4].LogicalNoPost*100, "rawLogicalM4_%")
		b.ReportMetric(r.Results[6].LogicalNoPost*100, "rawLogicalM6_%")
	}
}

// BenchmarkIdealAttack regenerates the Sec. IV-A ideal-attack
// experiment (paper: 1M runs, OER stays 100%).
func BenchmarkIdealAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := flow.RunIdealAttack(context.Background(), "b14", benchScale, benchKeyBits, 500, 6)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("ideal attack: %d runs, OER %.2f%%, full recoveries %d",
			res.Runs, res.OERPercent(), res.FullKeyRecoveries)
		b.ReportMetric(res.OERPercent(), "OER_%")
		b.ReportMetric(float64(res.FullKeyRecoveries), "fullKeyHits")
	}
}

// BenchmarkSATSolver exercises the CDCL core directly on two
// deterministic families: a resolution-hard pigeonhole instance and a
// batch of random 3-SAT instances near the phase transition. Both
// report conflicts (rnd3sat sums its 20 instances and counts the
// satisfiable ones), so a change to the watch lists or the search shows
// as a moved count on binary, ternary and long clauses alike.
func BenchmarkSATSolver(b *testing.B) {
	b.Run("pigeonhole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.New()
			holes := 8
			v := make([][]int, holes+1)
			for p := range v {
				v[p] = make([]int, holes)
				for h := range v[p] {
					v[p][h] = s.NewVar()
				}
			}
			for p := 0; p <= holes; p++ {
				s.AddClause(v[p]...)
			}
			for h := 0; h < holes; h++ {
				for p1 := 0; p1 <= holes; p1++ {
					for p2 := p1 + 1; p2 <= holes; p2++ {
						s.AddClause(-v[p1][h], -v[p2][h])
					}
				}
			}
			if s.Solve() != sat.Unsat {
				b.Fatal("PHP must be UNSAT")
			}
			b.ReportMetric(float64(s.Stats.Conflicts), "conflicts")
		}
	})
	b.Run("rnd3sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var conflicts, sats int64
			rng := uint64(0xdecafbad)
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for inst := 0; inst < 20; inst++ {
				s := sat.New()
				numVars := 140
				for v := 0; v < numVars; v++ {
					s.NewVar()
				}
				for cl := 0; cl < int(4.2*float64(numVars)); cl++ {
					lits := make([]int, 3)
					for j := range lits {
						v := 1 + next(numVars)
						if next(2) == 1 {
							v = -v
						}
						lits[j] = v
					}
					s.AddClause(lits...)
				}
				if s.Solve() == sat.Sat {
					sats++
				}
				conflicts += s.Stats.Conflicts
			}
			b.ReportMetric(float64(conflicts), "conflicts")
			b.ReportMetric(float64(sats), "satInstances")
		}
	})
}

// BenchmarkLEC measures SAT-based logic equivalence checking (the
// Fig. 3 Conformal substitute) on a b14-scale locked-vs-original miter
// with the simulation prefilter disabled, so the solver does all the
// work.
func BenchmarkLEC(b *testing.B) {
	orig, err := bmarks.Load("b14", benchSATScale)
	if err != nil {
		b.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: benchKeyBits, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The same one-member portfolio Check builds by default, made
		// here so its inprocessing work counters can be read.
		s := sat.NewPortfolio(sat.PortfolioOptions{})
		res, err := lec.Check(orig, lk.Circuit, lec.Options{PrefilterPatterns: -1, Solver: s})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent {
			b.Fatal("locked circuit must be equivalent under the correct key")
		}
		reportInprocessing(b, s.Stats())
	}
}

// BenchmarkLECSAT measures a LEC check whose miter reaches the SAT
// solver, which BenchmarkLEC's strashes away: the ATPG-locked c1908
// (×1.0, 64 key bits, lock seed 4009) checked as daemon-mix's
// "000 lock c1908 k64 sw1 s9" job checks it, with the job's one-member
// portfolio (seed 9) and the flow's LEC seed. The pair, clause and
// conflict counts are deterministic per tree.
func BenchmarkLECSAT(b *testing.B) {
	orig, err := bmarks.Load("c1908", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: benchKeyBits, Seed: 4009})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sat.NewPortfolio(sat.PortfolioOptions{Seed: 9})
		res, err := lec.Check(orig, lk.Circuit, lec.Options{Seed: 4009, Solver: s})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent {
			b.Fatal("locked circuit must be equivalent under the correct key")
		}
		b.ReportMetric(float64(res.Stats.SATPairs), "satPairs")
		b.ReportMetric(float64(res.Stats.ProblemClauses), "problemClauses")
		b.ReportMetric(float64(s.Stats().Conflicts), "conflicts")
		reportInprocessing(b, s.Stats())
	}
}

// reportInprocessing reports the solver's inprocessing work counters:
// candidate clause bodies scanned by (self-)subsumption and variable
// elimination attempts.
func reportInprocessing(b *testing.B, st sat.Stats) {
	b.ReportMetric(float64(st.SubsumeChecks), "subsumeChecks")
	b.ReportMetric(float64(st.BVETries), "bveTries")
}

// BenchmarkSATAttack measures the full oracle-guided SAT attack on a
// b14-scale locked design: incremental shared encoding, batched
// bit-parallel oracle queries, cofactor-cone constraints.
func BenchmarkSATAttack(b *testing.B) {
	orig, err := bmarks.Load("b14", benchSATScale)
	if err != nil {
		b.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: benchKeyBits, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The attack's default backend, made here so its inprocessing
		// work counters can be read.
		s := sat.NewPortfolio(sat.PortfolioOptions{})
		res, err := attack.SATAttackOpt(lk, orig, attack.SATAttackOptions{MaxIter: 2048, Solver: s})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("attack did not converge")
		}
		b.ReportMetric(float64(res.Iterations), "queries")
		b.ReportMetric(float64(res.AddedClauses)/float64(res.Iterations), "clauses/query")
		b.ReportMetric(float64(res.OracleEvals), "oracleEvals")
		reportInprocessing(b, s.Stats())
	}
}

// BenchmarkAIGMiter isolates the structural-hashing layer on the
// BenchmarkLEC configuration (0.1-scale b14, 64-bit key, prefilter
// disabled): one iteration runs the locked-vs-original check through
// the strashed AND-inverter graph and reports the miter problem-clause
// count plus the AIG statistics (nodes, strash hits, sweep merges).
// Strashing collapses the correct-key miter, so it must need no
// problem clauses at all.
func BenchmarkAIGMiter(b *testing.B) {
	orig, err := bmarks.Load("b14", benchSATScale)
	if err != nil {
		b.Fatal(err)
	}
	lk, err := locking.RandomLock(orig, locking.RandomLockOptions{KeyBits: benchKeyBits, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lec.Check(orig, lk.Circuit, lec.Options{PrefilterPatterns: -1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent {
			b.Fatal("locked circuit must be equivalent under the correct key")
		}
		if res.Stats.ProblemClauses != 0 {
			b.Fatalf("correct-key miter needed %d problem clauses, want 0", res.Stats.ProblemClauses)
		}
		b.ReportMetric(float64(res.Stats.ProblemClauses), "miterClauses")
		b.ReportMetric(float64(res.Stats.AIGNodes), "aigNodes")
		b.ReportMetric(float64(res.Stats.StrashHits), "strashHits")
		b.ReportMetric(float64(res.Stats.SweepMerges), "sweepMerges")
		b.ReportMetric(float64(res.Stats.SATPairs), "satPairs")
	}
}

// loadWrongKeyPair returns the original 0.1-scale b14 and its
// ATPG-locked variant under a wrong key. Key bit 8 is the needle
// configuration: flipping it leaves the circuits equal on >8k random
// patterns, so the miter solver has to *search* for the sparse
// distinguishing input instead of tripping over one (most other bits
// either corrupt nothing at this scale or corrupt densely enough that
// the miter decides in microseconds).
func loadWrongKeyPair(b *testing.B) (orig, wc *netlist.Circuit) {
	b.Helper()
	orig, err := bmarks.Load("b14", benchSATScale)
	if err != nil {
		b.Fatal(err)
	}
	lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: benchKeyBits, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	wrong := locking.Key{Bits: append([]bool(nil), lk.Key.Bits...)}
	wrong.Bits[8] = !wrong.Bits[8]
	wc, err = lk.ApplyKey(wrong)
	if err != nil {
		b.Fatal(err)
	}
	return orig, wc
}

// encodeRawMiter Tseitin-encodes the raw (unswept) miter between the
// pair into s, directly over their shared strashed AIG: output and
// next-state pairs are XORed and at least one difference is asserted.
// With a wrong-key circuit the miter is SAT (the model is a
// distinguishing input); with the correct key it is UNSAT — the raw
// equivalence proof the LEC sweeper normally short-circuits.
func encodeRawMiter(b *testing.B, s sat.Interface, orig, wc *netlist.Circuit) {
	b.Helper()
	bld := aig.NewBuilder()
	ma, err := bld.Add(orig)
	if err != nil {
		b.Fatal(err)
	}
	mb, err := bld.Add(wc)
	if err != nil {
		b.Fatal(err)
	}
	em := aig.NewEmitter(bld.Graph(), s)
	type pair struct{ la, lb aig.Lit }
	var pairs []pair
	for i, oa := range orig.Outputs() {
		pairs = append(pairs, pair{ma[orig.Gate(oa).Fanin[0]], mb[wc.Gate(wc.Outputs()[i]).Fanin[0]]})
	}
	ffB := make(map[string]netlist.GateID)
	for _, id := range wc.DFFs() {
		ffB[wc.Gate(id).Name] = id
	}
	for _, fa := range orig.DFFs() {
		fb, ok := ffB[orig.Gate(fa).Name]
		if !ok {
			b.Fatalf("flip-flop %q missing in locked circuit", orig.Gate(fa).Name)
		}
		pairs = append(pairs, pair{ma[orig.Gate(fa).Fanin[0]], mb[wc.Gate(fb).Fanin[0]]})
	}
	var diffs []int
	for _, p := range pairs {
		if p.la == p.lb {
			continue
		}
		d := s.NewVar()
		va, vb := em.LitVar(p.la), em.LitVar(p.lb)
		s.AddClause(-d, va, vb)
		s.AddClause(-d, -va, -vb)
		diffs = append(diffs, d)
	}
	if len(diffs) == 0 {
		b.Fatal("miter collapsed structurally; re-tune the benchmark configuration")
	}
	s.AddClause(diffs...)
}

// portfolioMiterSeed diversifies the portfolio members of
// BenchmarkPortfolioMiter and BenchmarkPortfolioUNSAT. Under this base
// seed the fastest diverged member, run solo, finds the wrong-key
// needle's distinguishing input faster than the default member 0
// (members=4 reports both times).
const portfolioMiterSeed = 7

// BenchmarkPortfolioMiter measures portfolio-vs-single solving on the
// hard wrong-key b14 miter (see loadWrongKeyPair): mirrored encoding
// and the time-sliced schedule are both inside the timed region. The
// members=4 variant additionally solves each diverged member
// configuration solo and reports the fastest (minSoloMs) next to the
// default member's time (member0Ms); their ratio is the speedup
// diversification makes available to a schedule that runs members in
// parallel.
func BenchmarkPortfolioMiter(b *testing.B) {
	orig, wc := loadWrongKeyPair(b)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.New()
			encodeRawMiter(b, s, orig, wc)
			if st := s.Solve(); st != sat.Sat {
				b.Fatalf("wrong-key miter must be SAT, got %v", st)
			}
			b.ReportMetric(float64(s.Stats.Conflicts), "conflicts")
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("deterministic=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := sat.NewPortfolio(sat.PortfolioOptions{Workers: workers, Seed: portfolioMiterSeed})
				encodeRawMiter(b, p, orig, wc)
				if st := p.Solve(); st != sat.Sat {
					b.Fatalf("wrong-key miter must be SAT, got %v", st)
				}
				b.ReportMetric(float64(p.Winner()), "winner")
				b.ReportMetric(float64(p.Stats().Conflicts), "conflictsSum")
			}
		})
	}
	b.Run("members=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			minSolo, member0 := math.MaxFloat64, 0.0
			for m := 0; m < 4; m++ {
				s := sat.NewWithOptions(sat.MemberOptions(m, portfolioMiterSeed))
				encodeRawMiter(b, s, orig, wc)
				t0 := time.Now()
				if st := s.Solve(); st != sat.Sat {
					b.Fatalf("member %d: wrong-key miter must be SAT, got %v", m, st)
				}
				ms := float64(time.Since(t0).Microseconds()) / 1000
				if ms < minSolo {
					minSolo = ms
				}
				if m == 0 {
					member0 = ms
				}
			}
			b.ReportMetric(minSolo, "minSoloMs")
			b.ReportMetric(member0, "member0Ms")
			b.ReportMetric(member0/minSolo, "speedupAvailable")
		}
	})
}

// loadCorrectKeyPair returns the original 0.1-scale b14 and its
// ATPG-locked variant under the correct key: functionally equivalent,
// structurally different (the lock removes cones and adds the restore
// unit), so the raw miter is a real UNSAT instance — ~13k conflicts
// for the deterministic solver — of exactly the shape every correct-key
// LEC proof and every SAT-attack convergence check bottoms out in.
func loadCorrectKeyPair(b *testing.B) (orig, kc *netlist.Circuit) {
	b.Helper()
	orig, err := bmarks.Load("b14", benchSATScale)
	if err != nil {
		b.Fatal(err)
	}
	lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: benchKeyBits, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	kc, err = lk.ApplyKey(lk.Key)
	if err != nil {
		b.Fatal(err)
	}
	return orig, kc
}

// BenchmarkPortfolioUNSAT measures the portfolio on the UNSAT side,
// where every member would otherwise have to rediscover the full
// refutation: single solver vs a 2-member portfolio on the correct-key
// b14 miter. The portfolio reports the exported/imported clause counts
// and the summed member conflicts, so the BENCH json shows whether
// clause sharing actually shortened the proof.
func BenchmarkPortfolioUNSAT(b *testing.B) {
	orig, kc := loadCorrectKeyPair(b)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.New()
			encodeRawMiter(b, s, orig, kc)
			if st := s.Solve(); st != sat.Unsat {
				b.Fatalf("correct-key miter must be UNSAT, got %v", st)
			}
			b.ReportMetric(float64(s.Stats.Conflicts), "conflicts")
		}
	})
	b.Run("deterministic=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := sat.NewPortfolio(sat.PortfolioOptions{Workers: 2, Seed: portfolioMiterSeed})
			encodeRawMiter(b, p, orig, kc)
			if st := p.Solve(); st != sat.Unsat {
				b.Fatalf("correct-key miter must be UNSAT, got %v", st)
			}
			agg := p.Stats()
			b.ReportMetric(float64(agg.Conflicts), "conflictsSum")
			b.ReportMetric(float64(agg.Exported), "exported")
			b.ReportMetric(float64(agg.Imported), "imported")
			b.ReportMetric(float64(p.Winner()), "winner")
		}
	})
}

// BenchmarkFlowRuntime measures the end-to-end secure flow wall time
// (the paper reports 5–18 h with commercial tools on full-size ITC'99;
// this measures our substrate at the configured scale).
func BenchmarkFlowRuntime(b *testing.B) {
	orig, err := bmarks.Load("b14", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Run(context.Background(), orig, flow.Config{KeyBits: benchKeyBits, SplitLayer: 4, Seed: uint64(i), UseATPGLock: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad times the benchmark generator at the published size,
// the netlist every Table I/II cell starts from. gates is the generated
// gate count, a check that the generator's output did not change size.
func BenchmarkLoad(b *testing.B) {
	for _, name := range []string{"b14", "b17"} {
		b.Run(name+"x1.0", func(b *testing.B) {
			var gates int
			for i := 0; i < b.N; i++ {
				c, err := bmarks.Load(name, 1.0)
				if err != nil {
					b.Fatal(err)
				}
				gates = c.NumGates()
			}
			b.ReportMetric(float64(gates), "gates")
		})
	}
}

// BenchmarkLockingAblation compares the ATPG-based scheme against
// plain random locking on the synthesis-stage area economics — the
// design choice DESIGN.md calls out (cost-driven fault selection is
// what buys the paper its area savings).
func BenchmarkLockingAblation(b *testing.B) {
	orig, err := bmarks.Load("b14", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lk, rep, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: benchKeyBits, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = lk
		b.ReportMetric(rep.RemovedArea-rep.RestoreArea, "netAreaGain_um2")
		b.ReportMetric(float64(rep.RemovedGates), "gatesRemoved")
	}
}

// BenchmarkATPGLock times the ATPG lock splitlockd's daemon-mix jobs
// pay in Job.Prepare: c880, c1355, c1908 and c3540 at full size and b14
// x0.1, each locked with a 64- and a 128-bit key (lock seed 4001, the
// seed-1 M4 derivation). One op is all ten locks. The counters are
// summed over the ten reports and are deterministic per source tree.
func BenchmarkATPGLock(b *testing.B) {
	var designs []*netlist.Circuit
	for _, d := range []struct {
		name  string
		scale float64
	}{{"c880", 1}, {"c1355", 1}, {"c1908", 1}, {"c3540", 1}, {"b14", 0.1}} {
		orig, err := bmarks.Load(d.name, d.scale)
		if err != nil {
			b.Fatal(err)
		}
		designs = append(designs, orig)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var applied, removed, padded int
	for i := 0; i < b.N; i++ {
		applied, removed, padded = 0, 0, 0
		for _, orig := range designs {
			for _, kb := range []int{64, 128} {
				_, rep, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: kb, Seed: 4001})
				if err != nil {
					b.Fatal(err)
				}
				applied += rep.FaultsApplied
				removed += rep.RemovedGates
				padded += rep.PaddedKeyBits
			}
		}
	}
	b.ReportMetric(float64(applied), "faultsApplied")
	b.ReportMetric(float64(removed), "removedGates")
	b.ReportMetric(float64(padded), "paddedKeyBits")
}

// BenchmarkATPGLockPaper times the ATPG lock at the paper's scale: b14
// x1.0 with a 128-bit key at lock seeds 4001 and 6001, the locks of
// paper-b14's M4 and M6 cells. One op is both locks; the counters are
// summed over the two reports and are deterministic per source tree.
func BenchmarkATPGLockPaper(b *testing.B) {
	orig, err := bmarks.Load("b14", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var applied, removed, padded int
	for i := 0; i < b.N; i++ {
		applied, removed, padded = 0, 0, 0
		for _, seed := range []uint64{4001, 6001} {
			_, rep, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: 128, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			applied += rep.FaultsApplied
			removed += rep.RemovedGates
			padded += rep.PaddedKeyBits
		}
	}
	b.ReportMetric(float64(applied), "faultsApplied")
	b.ReportMetric(float64(removed), "removedGates")
	b.ReportMetric(float64(padded), "paddedKeyBits")
}
