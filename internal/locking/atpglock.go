package locking

import (
	"fmt"
	"sort"

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
}

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
// the key budget), applied on a trial copy, verified equivalent (the
// Fig. 3 LEC reject loop, realized here as a structural validity check
// plus simulation; the flow package re-verifies with full LEC), and
// committed.
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
	ropt := lockRegionOptions()

	// Several selection rounds over the modules: each round picks at
	// most one fault per module (the paper's per-module selection);
	// remaining key budget rolls into the next round until no module
	// yields a worthwhile fault.
	for round := 0; round < 4 && budget > 0; round++ {
		applied := 0
		for _, mod := range mods {
			if budget <= 0 {
				break
			}
			// ATPG-style candidate ranking: faults on heavily skewed
			// nets (signal probability near 0 or 1) have small
			// failing-pattern sets and large redundant shadows —
			// exactly the cost-effective faults the paper's selection
			// converges on.
			probs, err := sim.Activity(c, 1024, rng.Word())
			if err != nil {
				return nil, nil, err
			}
			best := bestRegion(c, mod, ropt, maxCandidatesPerModule, budget, probs, rng, rep)
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
			// Apply on a trial copy; reject on any validity or
			// equivalence failure (the Fig. 3 reject loop).
			trial := c.Clone()
			trialKeys := append([]KeyBit(nil), lk.KeyBits...)
			trialLK := &Locked{Circuit: trial, KeyBits: trialKeys, Scheme: lk.Scheme}
			bits, remArea, addArea, err := applyRegion(trial, trialLK, best, rng)
			if err != nil {
				rep.FaultsRejected++
				continue
			}
			if err := trial.Validate(); err != nil {
				rep.FaultsRejected++
				continue
			}
			eq, err := sim.Equivalent(c, trial, 1<<12, rng.Word())
			if err != nil || !eq {
				rep.FaultsRejected++
				continue
			}
			c = trial
			lk.Circuit = c
			lk.KeyBits = trialLK.KeyBits
			budget -= bits
			applied++
			rep.FaultsApplied++
			rep.RemovedGates += len(best.removed)
			rep.RemovedArea += remArea
			rep.RestoreArea += addArea
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
// small).
func bestRegion(c *netlist.Circuit, mod partition.Module, ropt regionOptions, maxTries, budget int, probs []float64, rng *sim.Rand, rep *ATPGLockReport) *region {
	order, err := c.TopoOrder()
	if err != nil {
		return nil
	}
	topoPos := make([]int32, c.NumIDs())
	for i := range topoPos {
		topoPos[i] = -1
	}
	for i, id := range order {
		topoPos[id] = int32(i)
	}
	nets := make([]uint64, c.NumIDs())
	var best *region
	tries := 0
	ranked := append([]netlist.GateID(nil), mod.Gates...)
	sort.SliceStable(ranked, func(i, j int) bool {
		pi, pj := 1.0, 1.0
		if int(ranked[i]) < len(probs) {
			pi = probs[ranked[i]]
		}
		if int(ranked[j]) < len(probs) {
			pj = probs[ranked[j]]
		}
		if pi != pj {
			return pi < pj
		}
		return ranked[i] < ranked[j]
	})
	for _, id := range ranked {
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
			r := analyzeRegion(c, atpg.Fault{Net: id, StuckAt: sa}, ropt, budget, topoPos, nets)
			if r == nil || r.keyBits == 0 || r.keyBits > budget {
				rep.FaultsRejected++
				continue
			}
			if best == nil || r.gain > best.gain {
				best = r
			}
		}
	}
	return best
}

// padRandomKeyGates inserts plain XOR/XNOR key-gates on random live
// nets until the key budget is filled.
func padRandomKeyGates(c *netlist.Circuit, lk *Locked, n int, rng *sim.Rand) error {
	var candidates []netlist.GateID
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		g := c.Gate(id)
		if g.Type == netlist.Output || g.Type.IsTie() || g.DontTouch {
			continue
		}
		if c.FanoutCount(id) == 0 {
			continue
		}
		candidates = append(candidates, id)
	}
	if len(candidates) < n {
		return fmt.Errorf("locking: cannot pad %d key bits, only %d candidate nets", n, len(candidates))
	}
	perm := rng.Perm(len(candidates))
	for i := 0; i < n; i++ {
		net := candidates[perm[i]]
		bit := rng.Word()&1 == 1
		gt, tt := netlist.Xor, netlist.TieLo
		if bit {
			gt, tt = netlist.Xnor, netlist.TieHi
		}
		kidx := len(lk.KeyBits)
		tie, err := c.AddGate(fmt.Sprintf("tie_k%d", kidx), tt)
		if err != nil {
			return err
		}
		kg, err := c.AddGate(fmt.Sprintf("kg%d", kidx), gt, net, tie)
		if err != nil {
			return err
		}
		c.RewireNet(net, kg)
		c.Gate(kg).Fanin[0] = net
		c.Invalidate()
		c.Gate(tie).DontTouch = true
		c.Gate(kg).DontTouch = true
		c.Gate(kg).KeyPin = 1
		lk.KeyBits = append(lk.KeyBits, KeyBit{Tie: tie, Gate: kg, Pin: 1, Value: bit})
	}
	return nil
}
