package locking

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/atpg"
	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// ATPGLockOptions configures the cost-driven fault-injection locking of
// Sec. III-A.
type ATPGLockOptions struct {
	// KeyBits is the target key size (default 128, the paper's
	// setting). Comparator key bits accumulate from selected failing
	// patterns; any remainder is padded with plain XOR/XNOR key-gates
	// so the final key is exactly KeyBits wide (the |K| = k
	// constraint).
	KeyBits int
	// Seed drives partitioning, candidate order and key generation.
	Seed uint64
	// Stop, when non-nil and set, cancels the lock: it is checked once
	// per module, and ATPGLock then returns ErrCancelled and no Locked.
	// A lock that completes before the flag is observed is unchanged.
	// ATPGLock never writes the flag.
	Stop *atomic.Bool
}

// ErrCancelled is returned when a lock was cut short by
// ATPGLockOptions.Stop.
var ErrCancelled = errors.New("locking: lock cancelled")

func (o ATPGLockOptions) withDefaults() ATPGLockOptions {
	if o.KeyBits <= 0 {
		o.KeyBits = 128
	}
	return o
}

// Fault-region bounds of the cost-driven selection.
const (
	// maxDepth bounds the fault's backward cone, forwardDepth its
	// forward (shadow) cone.
	maxDepth, forwardDepth = 2, 10
	// maxSupport bounds the region input cut.
	maxSupport = 11
	// maxOnSet bounds the per-boundary failing-pattern count.
	maxOnSet = 48
	// maxCandidatesPerModule caps fault candidates examined per module.
	maxCandidatesPerModule = 48
)

// lockRegionOptions is the region-analysis view of the bounds above.
func lockRegionOptions() regionOptions {
	return regionOptions{
		BackDepth:   maxDepth,
		FwdDepth:    forwardDepth,
		MaxSupport:  maxSupport,
		MaxActOnSet: maxOnSet,
		MaxSOP:      maxOnSet,
	}
}

// ATPGLockReport summarizes what the synthesis stage did.
type ATPGLockReport struct {
	ModulesLocked  int
	FaultsTried    int
	FaultsRejected int
	FaultsApplied  int
	RemovedGates   int
	RemovedArea    float64 // um^2 freed by re-synthesis (area delta of deletions)
	RestoreArea    float64 // um^2 of re-synthesized + restore logic added
	PaddedKeyBits  int     // key bits realized as plain XOR/XNOR gates
}

// ATPGLock locks the circuit with the fault-injection / re-synthesis /
// restore scheme of Sec. III-A. Per module the most cost-effective
// fault region is selected (maximizing removed minus added area under
// the key budget), applied as a trial, verified equivalent (the Fig. 3
// LEC reject loop, realized here as a validity check plus simulation,
// both confined to what the trial touched; the flow package
// re-verifies with full LEC), and committed.
//
// The lock works on one copy of the circuit and one per-lock state
// that is rebuilt only when a fault is committed: the region
// analysis's topological positions and scratch, and the compiled
// simulator of the whole circuit, which serves the activity estimates
// and, when needed, the trial's equivalence check. A trial edits the
// copy in place under a netlist checkpoint; a rejected trial is rolled
// back, a kept one committed, so no trial clones the circuit.
//
// The trial's check (tryRegion) is cone-local. It validates only the
// trial's new edges and killed gates, sweeps only what the trial
// removed, and re-adds the area only from the lowest edited ID. For
// equivalence it first compares each re-driven boundary with the net
// it replaces over every value of the region's support; when one
// differs, it simulates the committed circuit once and re-simulates
// only the trial's forward cone, comparing the outputs and next states
// inside it, since every other observable is structurally unchanged.
// The verdict and the random draws, and so the lock, are those of a
// whole-circuit Validate, SweepDead, cellib.Area and a 4096-pattern
// sim.EquivalentOpt against the committed circuit.
func ATPGLock(orig *netlist.Circuit, opt ATPGLockOptions) (*Locked, *ATPGLockReport, error) {
	opt = opt.withDefaults()
	c := orig.Clone()
	rng := sim.NewRand(opt.Seed ^ 0xa7f6)
	rep := &ATPGLockReport{}

	// One partition per two key bits, at least 4.
	mods, err := partition.RandomBalanced(c, max(opt.KeyBits/2, 4), rng.Word())
	if err != nil {
		return nil, nil, err
	}
	lk := &Locked{Circuit: c, Scheme: "atpg-region"}
	budget := opt.KeyBits
	an, err := newAnalyzer(c, lockRegionOptions())
	if err != nil {
		return nil, nil, err
	}
	var ledger areaLedger
	area := ledger.update(c, nil, 0)
	// stale lists the gates dead in the input, which a trial's sweep
	// removes too; the first commit removes them for good.
	stale := c.DeadGates()
	// eval is the simulator of the committed circuit, compiled on first
	// use after each commit.
	var eval *sim.Evaluator

	// Several selection rounds over the modules: each round picks at
	// most one fault per module (the paper's per-module selection);
	// remaining key budget rolls into the next round until no module
	// yields a worthwhile fault.
	for round := 0; round < 4 && budget > 0; round++ {
		applied := 0
		for _, mod := range mods {
			if opt.Stop != nil && opt.Stop.Load() {
				return nil, nil, ErrCancelled
			}
			if budget <= 0 {
				break
			}
			// ATPG-style candidate ranking: faults on heavily skewed
			// nets (signal probability near 0 or 1) have small
			// failing-pattern sets and large redundant shadows —
			// exactly the cost-effective faults the paper's selection
			// converges on.
			if eval == nil {
				if eval, err = sim.NewEvaluator(c); err != nil {
					return nil, nil, err
				}
			}
			probs, err := eval.Activity(mod.Gates, sim.ActivityOptions{Patterns: 1024, Seed: rng.Word()})
			if err != nil {
				return nil, nil, err
			}
			best := bestRegion(an, mod, maxCandidatesPerModule, budget, probs, rep)
			if best == nil {
				continue
			}
			// Cost rule: a fault is only worth applying when it beats
			// the plain-padding alternative for the same key bits (an
			// XOR key-gate plus TIE cell per bit); otherwise the
			// module's bits are cheaper as padding.
			padCost := float64(best.keyBits) * (cellib.ForGate(netlist.Xor, 2).Area + cellib.ForGate(netlist.TieHi, 0).Area)
			if best.gain < -padCost {
				rep.FaultsRejected++
				continue
			}
			// Apply as a trial; reject on any validity or equivalence
			// failure (the Fig. 3 reject loop).
			var before *netlist.Circuit
			if trialHook != nil {
				before = c.Clone()
			}
			n0 := c.NumIDs()
			c.Checkpoint()
			keys := len(lk.KeyBits)
			bits, seed, err := an.tryRegion(lk, best, rng, eval, n0, stale)
			if trialHook != nil {
				trialHook(an, eval, n0, before, seed, err)
			}
			if err != nil {
				c.Rollback()
				lk.KeyBits = lk.KeyBits[:keys]
				ledger.update(c, an.killed, n0)
				rep.FaultsRejected++
				continue
			}
			areaAfter := ledger.update(c, an.killed, n0)
			c.Commit()
			if err := an.reset(); err != nil {
				return nil, nil, err
			}
			stale, eval = nil, nil
			budget -= bits
			applied++
			rep.FaultsApplied++
			rep.RemovedGates += len(best.removed)
			rep.RemovedArea += max(area-areaAfter, 0)
			rep.RestoreArea += max(areaAfter-area, 0)
			area = areaAfter
		}
		if round == 0 {
			rep.ModulesLocked = applied
		}
		if applied == 0 {
			break
		}
	}

	// Pad the remaining budget with plain XOR/XNOR key-gates so |K| is
	// exactly KeyBits.
	if budget > 0 {
		if err := padRandomKeyGates(c, lk, budget, rng); err != nil {
			return nil, nil, err
		}
		rep.PaddedKeyBits = budget
	}
	for _, kb := range lk.KeyBits {
		lk.Key.Bits = append(lk.Key.Bits, kb.Value)
	}
	if err := c.Validate(); err != nil {
		return nil, nil, fmt.Errorf("locking: ATPG lock broke the netlist: %w", err)
	}
	return lk, rep, nil
}

// bestRegion scans a module for the most cost-effective fault region.
// Candidates are visited in ascending switching activity (activity
// 2p(1−p) is smallest for skewed nets, whose activation sets are
// small); probs[k] is the activity of mod.Gates[k]. The region it
// returns is kept in an and stays valid until the next bestRegion call.
func bestRegion(an *analyzer, mod partition.Module, maxTries, budget int, probs []float64, rep *ATPGLockReport) *region {
	c := an.c
	var best *region
	tries := 0
	type rankedGate struct {
		p  float64
		id netlist.GateID
	}
	byActivity := make([]rankedGate, len(mod.Gates))
	for k, id := range mod.Gates {
		byActivity[k] = rankedGate{probs[k], id}
	}
	// A module lists each gate once, so (activity, ID) orders it totally.
	slices.SortFunc(byActivity, func(x, y rankedGate) int {
		if x.p != y.p {
			return cmp.Compare(x.p, y.p)
		}
		return cmp.Compare(x.id, y.id)
	})
	for _, rg := range byActivity {
		id := rg.id
		if tries >= maxTries {
			break
		}
		if !c.Alive(id) || c.Gate(id).DontTouch {
			continue
		}
		for _, sa := range []bool{false, true} {
			if tries >= maxTries {
				break
			}
			tries++
			rep.FaultsTried++
			r := an.analyze(atpg.Fault{Net: id, StuckAt: sa}, budget)
			if r == nil || r.keyBits == 0 || r.keyBits > budget {
				rep.FaultsRejected++
				continue
			}
			if best == nil || r.gain > best.gain {
				best = r
				an.keep()
			}
		}
	}
	return best
}

// padRandomKeyGates inserts plain XOR/XNOR key-gates on random live
// nets until the key budget is filled.
func padRandomKeyGates(c *netlist.Circuit, lk *Locked, n int, rng *sim.Rand) error {
	candidates := lockableNets(c)
	if len(candidates) < n {
		return fmt.Errorf("locking: cannot pad %d key bits, only %d candidate nets", n, len(candidates))
	}
	perm := rng.Perm(len(candidates))
	for i := 0; i < n; i++ {
		bit := rng.Word()&1 == 1
		if err := insertXorKeyGate(c, lk, candidates[perm[i]], len(lk.KeyBits), bit); err != nil {
			return err
		}
	}
	return nil
}
