package locking

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bmarks"
	"repro/internal/cellib"
	"repro/internal/faultpoint"
	"repro/internal/lec"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// goldenLocks are the locks TestATPGLockGolden pins: the ten locks of
// BenchmarkATPGLock (the daemon-mix designs at k64 and k128, lock seed
// 4001) and paper-b14's two b14 ×1.0 k128 cells (seeds 4001 and 6001).
var goldenLocks = []struct {
	bench   string
	scale   float64
	keyBits int
	seed    uint64
	paper   bool
}{
	{"c880", 1, 64, 4001, false}, {"c880", 1, 128, 4001, false},
	{"c1355", 1, 64, 4001, false}, {"c1355", 1, 128, 4001, false},
	{"c1908", 1, 64, 4001, false}, {"c1908", 1, 128, 4001, false},
	{"c3540", 1, 64, 4001, false}, {"c3540", 1, 128, 4001, false},
	{"b14", 0.1, 64, 4001, false}, {"b14", 0.1, 128, 4001, false},
	{"b14", 1, 128, 4001, true}, {"b14", 1, 128, 6001, true},
}

// corruptEvery arms the locking.trial.corrupt site on every n'th trial
// until the test ends.
func corruptEvery(t *testing.T, n int64) {
	t.Helper()
	var trials atomic.Int64
	faultpoint.Set(fpTrialCorrupt, func() {
		if trials.Add(1)%n == 1%n {
			panic("corrupt trial")
		}
	})
	t.Cleanup(func() { faultpoint.Clear(fpTrialCorrupt) })
}

// TestTrialVerdictMatchesWholeCircuit holds every trial of the ten
// small golden locks, with and without the corrupt site armed on every
// third trial, to the whole-circuit passes the cone-local check stands
// for: the trial is malformed exactly when netlist.Validate fails, its
// sweep leaves nothing for SweepDead, and it is kept exactly when
// sim.EquivalentOpt against the circuit before it, on the same seed and
// 4096 patterns, finds no difference. The forward-cone simulation,
// which tryRegion runs only when the boundary shortcut fails, must give
// that verdict on every trial too.
func TestTrialVerdictMatchesWholeCircuit(t *testing.T) {
	for _, armed := range []bool{false, true} {
		for _, g := range goldenLocks {
			if g.paper {
				continue
			}
			t.Run(fmt.Sprintf("%s-x%g-k%d/corrupt=%v", g.bench, g.scale, g.keyBits, armed), func(t *testing.T) {
				orig, err := bmarks.Load(g.bench, g.scale)
				if err != nil {
					t.Fatal(err)
				}
				if armed {
					corruptEvery(t, 3)
				}
				var kept, rejected int
				trialHook = func(a *analyzer, eval *sim.Evaluator, n0 int, before *netlist.Circuit, seed uint64, verdict error) {
					got := a.c.Clone()
					if err := got.Validate(); (err != nil) != errors.Is(verdict, errMalformed) {
						t.Errorf("trial verdict %v, Validate %v", verdict, err)
						return
					}
					if errors.Is(verdict, errMalformed) {
						rejected++
						return
					}
					if dead := got.DeadGates(); len(dead) > 0 {
						t.Errorf("the trial's sweep left %d gates SweepDead removes", len(dead))
					}
					eq, err := sim.EquivalentOpt(before, got, sim.CompareOptions{Patterns: 1 << 12, Seed: seed})
					want := err == nil && eq
					if (verdict == nil) != want {
						t.Errorf("trial verdict %v, whole-circuit equivalence %v (%v)", verdict, eq, err)
					}
					if err := a.forwardCone(n0); err != nil {
						t.Fatal(err)
					}
					if eq, err := eval.EquivalentEdit(&a.edit, 1<<12, seed); err != nil || eq != want {
						t.Errorf("forward-cone simulation %v (%v), whole-circuit equivalence %v", eq, err, want)
					}
					if verdict == nil {
						kept++
					} else {
						rejected++
					}
				}
				t.Cleanup(func() { trialHook = nil })
				_, rep, err := ATPGLock(orig, ATPGLockOptions{KeyBits: g.keyBits, Seed: g.seed})
				if err != nil {
					t.Fatal(err)
				}
				if kept != rep.FaultsApplied || kept == 0 {
					t.Errorf("%d trials kept, report %+v", kept, *rep)
				}
				if armed && rejected == 0 {
					t.Error("no trial rejected with the corrupt site armed")
				}
			})
		}
	}
}

// TestATPGLockRejectsCorruptTrial runs the Fig. 3 reject branch: with
// the first trial corrupted, the lock rejects it, rolls it back, goes
// on committing later trials, and the locked circuit is still
// equivalent to the original under the correct key.
func TestATPGLockRejectsCorruptTrial(t *testing.T) {
	orig, err := bmarks.Load("c880", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := ATPGLockOptions{KeyBits: 64, Seed: 4001}
	_, clean, err := ATPGLock(orig, opt)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Set(fpTrialCorrupt, faultpoint.After(1, func() { panic("corrupt trial") }))
	t.Cleanup(func() { faultpoint.Clear(fpTrialCorrupt) })
	lk, rep, err := ATPGLock(orig, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsRejected <= clean.FaultsRejected {
		t.Fatalf("corrupt trial not rejected: %d rejects, %d without the fault", rep.FaultsRejected, clean.FaultsRejected)
	}
	if rep.FaultsApplied == 0 {
		t.Fatalf("no trial kept after the rollback: %+v", *rep)
	}
	if lk.Key.Len() != opt.KeyBits {
		t.Fatalf("key size %d, want %d", lk.Key.Len(), opt.KeyBits)
	}
	res, err := lec.Check(orig, lk.Circuit, lec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("locked circuit not equivalent under the correct key (cex %v)", res.Counterexample)
	}
}

// TestAreaLedgerMatchesArea: the ledger's total is bit-identical to
// cellib.Area through trials that add and kill gates, whether they are
// committed or rolled back.
func TestAreaLedgerMatchesArea(t *testing.T) {
	c := genCircuit(t, 300, 41)
	rng := sim.NewRand(5)
	var l areaLedger
	check := func(got float64) {
		t.Helper()
		if want := cellib.Area(c); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ledger %v, cellib.Area %v", got, want)
		}
	}
	check(l.update(c, nil, 0))
	for trial := 0; trial < 40; trial++ {
		n0 := c.NumIDs()
		c.Checkpoint()
		var killed []netlist.GateID
		for k := 0; k < 3; k++ {
			id := netlist.GateID(rng.Intn(n0))
			if g := c.Gate(id); c.Alive(id) && g.Type != netlist.Input && g.Type != netlist.Output {
				c.Kill(id)
				killed = append(killed, id)
			}
		}
		a := c.Inputs()[rng.Intn(len(c.Inputs()))]
		c.MustAdd("", netlist.Nand, a, c.MustAdd("", netlist.Not, a))
		check(l.update(c, killed, n0))
		if trial%3 == 0 {
			c.Rollback()
			check(l.update(c, killed, n0))
		} else {
			c.Commit()
		}
	}
}

// TestCheckEdgesMatchesValidate: a rewired sink whose new driver sits
// higher in the topological order is searched for a cycle, and the
// verdict is netlist.Validate's, with and without one.
func TestCheckEdgesMatchesValidate(t *testing.T) {
	c := netlist.New("edges")
	i0 := c.MustAdd("i0", netlist.Input)
	i1 := c.MustAdd("i1", netlist.Input)
	i2 := c.MustAdd("i2", netlist.Input)
	x := c.MustAdd("x", netlist.And, i0, i1)
	y := c.MustAdd("y", netlist.Or, x, i2)
	z := c.MustAdd("z", netlist.Not, y)
	w := c.MustAdd("w3", netlist.Not, c.MustAdd("w2", netlist.Not, c.MustAdd("w1", netlist.Not, i2)))
	c.MustAdd("oz", netlist.Output, z)
	c.MustAdd("ow", netlist.Output, w)
	for _, tc := range []struct {
		name      string
		sink, old netlist.GateID
		from      netlist.GateID // the new driver is AND(from, i0)
		cycle     bool
	}{
		{"cycle", y, x, z, true},      // y reads AND(z, i0), and z reads y
		{"backward", x, i0, w, false}, // x reads AND(w3, i0), w3 sits above x
		{"forward", z, y, i1, false},  // z reads AND(i1, i0)
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := testAnalyzer(t, c, lockRegionOptions())
			n0 := c.NumIDs()
			c.Checkpoint()
			defer c.Rollback()
			n := c.MustAdd("", netlist.And, tc.from, i0)
			c.ReplaceFanin(tc.sink, tc.old, n)
			a.rewired = append(a.rewired[:0], rewire{sink: tc.sink, old: tc.old, new: n})
			a.killed = a.killed[:0]
			err := a.checkEdges(n0)
			if (err != nil) != tc.cycle {
				t.Errorf("checkEdges = %v, want a cycle: %v", err, tc.cycle)
			}
			if verr := c.Clone().Validate(); (verr != nil) != (err != nil) {
				t.Errorf("checkEdges = %v, Validate = %v", err, verr)
			}
			if tc.name == "backward" && len(a.back) == 0 {
				t.Error("the backward case searched no sink")
			}
		})
	}
}

// TestSweepMatchesSweepDead: the trial's sweep kills what SweepDead
// would, here a flip-flop loop that loses its last path to an output
// when the gate reading it is removed.
func TestSweepMatchesSweepDead(t *testing.T) {
	c := netlist.New("loop")
	i0 := c.MustAdd("i0", netlist.Input)
	i1 := c.MustAdd("i1", netlist.Input)
	q := c.MustAdd("q", netlist.DFF, i0)
	g := c.MustAdd("g", netlist.Xor, q, i0)
	if err := c.SetFanin(q, 0, g); err != nil {
		t.Fatal(err)
	}
	h := c.MustAdd("h", netlist.And, q, i1)
	o := c.MustAdd("o", netlist.Or, h, i1)
	c.MustAdd("out", netlist.Output, o)
	a := testAnalyzer(t, c, lockRegionOptions())
	n0 := c.NumIDs()
	c.Checkpoint()
	defer c.Rollback()
	n := c.MustAdd("", netlist.Not, i1)
	c.ReplaceFanin(o, h, n)
	c.Kill(h)
	want := c.Clone().DeadGates()
	a.sweep([]netlist.GateID{h}, n0, nil)
	if got := a.killed[1:]; !slices.Equal(got, want) || len(want) != 2 {
		t.Fatalf("sweep killed %v, SweepDead %v (want q and g)", got, want)
	}
}
