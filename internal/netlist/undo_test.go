package netlist

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// randomCircuit builds a random acyclic netlist with inputs, a few
// flip-flops and outputs, over 2-input gates.
func randomCircuit(t *testing.T, rng *rand.Rand, gates int) *Circuit {
	t.Helper()
	c := New("r")
	var pool []GateID
	for i := 0; i < 6; i++ {
		pool = append(pool, c.MustAdd(fmt.Sprintf("i%d", i), Input))
	}
	var ffs []GateID
	for i := 0; i < 3; i++ {
		ff := c.MustAdd(fmt.Sprintf("q%d", i), DFF, pool[0])
		ffs = append(ffs, ff)
		pool = append(pool, ff)
	}
	types := []GateType{And, Nand, Or, Nor, Xor, Xnor}
	for i := 0; i < gates; i++ {
		a, b := pool[rng.IntN(len(pool))], pool[rng.IntN(len(pool))]
		pool = append(pool, c.MustAdd(fmt.Sprintf("g%d", i), types[rng.IntN(len(types))], a, b))
	}
	for i, ff := range ffs {
		if err := c.SetFanin(ff, 0, pool[len(pool)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		c.MustAdd(fmt.Sprintf("o%d", i), Output, pool[len(pool)-4-i])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// snapshot renders everything Rollback must restore.
func snapshot(c *Circuit) string {
	fan := make([][]GateID, c.NumIDs())
	for i := range fan {
		fan[i] = c.Fanouts(GateID(i))
	}
	order, err := c.TopoOrder()
	return fmt.Sprintf("%s\n%v\n%v\n%v\n%v\n%v\n%d", c.BenchString(), c.Inputs(), c.Outputs(), fan, order, err, len(c.byName))
}

// rebuiltFanouts returns c's fanout lists as a fresh rebuild computes
// them.
func rebuiltFanouts(c *Circuit) [][]GateID {
	c.fanoutsValid = false
	c.ensureFanouts()
	return c.fanouts
}

// TestCheckpointRollback applies random edits under a checkpoint: the
// patched fanout lists must equal a rebuild after every edit, a commit
// must keep the edits, and a rollback must restore the circuit exactly,
// fanout lists and topological order included.
func TestCheckpointRollback(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 60; trial++ {
		c := randomCircuit(t, rng, 40+rng.IntN(60))
		before := snapshot(c)
		c.Checkpoint()
		for e := 0; e < 12; e++ {
			live := c.NumIDs()
			switch rng.IntN(5) {
			case 0, 1: // a new gate over random drivers
				a, b := GateID(rng.IntN(live)), GateID(rng.IntN(live))
				if c.Alive(a) && c.Alive(b) && c.Gate(a).Type != Output && c.Gate(b).Type != Output {
					c.MustAdd("", Xor, a, b, a)
				}
			case 2: // rewire a sink onto a newer driver (stays acyclic)
				s := GateID(rng.IntN(live))
				d := GateID(rng.IntN(live))
				if c.Alive(s) && c.Alive(d) && d < s && len(c.Gate(s).Fanin) > 0 && c.Gate(d).Type != Output {
					c.ReplaceFanin(s, c.Gate(s).Fanin[0], d)
				}
			case 3: // any gate, boundary gates included
				c.Kill(GateID(rng.IntN(live)))
			case 4:
				c.SweepDead()
			}
			patched := slices.Clone(c.fanouts)
			for i := range patched {
				patched[i] = slices.Clone(patched[i])
			}
			if want := rebuiltFanouts(c); fmt.Sprint(patched) != fmt.Sprint(want) {
				t.Fatalf("trial %d edit %d: patched fanouts %v, rebuild %v", trial, e, patched, want)
			}
		}
		if trial%3 == 0 {
			edited := snapshot(c)
			c.Commit()
			if got := snapshot(c); got != edited {
				t.Fatalf("trial %d: commit changed the circuit", trial)
			}
			continue
		}
		c.Rollback()
		if got := snapshot(c); got != before {
			t.Fatalf("trial %d: rollback did not restore the circuit:\n got %s\nwant %s", trial, got, before)
		}
		// The restored circuit takes new gates at the same IDs.
		id := c.MustAdd("", Buf, c.Inputs()[0])
		if int(id) != c.NumIDs()-1 || c.Gate(id).Name != fmt.Sprintf("n%d", id) {
			t.Fatalf("trial %d: new gate got id %d name %q", trial, id, c.Gate(id).Name)
		}
	}
}

func TestCheckpointMisuse(t *testing.T) {
	c := buildC17(t)
	for name, f := range map[string]func(){
		"commit":   c.Commit,
		"rollback": c.Rollback,
		"double":   func() { c.Checkpoint(); defer c.Rollback(); c.Checkpoint() },
		"rename":   func() { c.Checkpoint(); defer c.Rollback(); _ = c.Rename(0, "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
