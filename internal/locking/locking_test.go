package locking

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/bmarks"
	"repro/internal/lec"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func genCircuit(t *testing.T, gates int, seed uint64) *netlist.Circuit {
	t.Helper()
	c, err := bmarks.Generate(bmarks.Spec{
		Name: "t", Inputs: 16, Outputs: 8, Gates: gates, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRandomKeyUniform(t *testing.T) {
	rng := sim.NewRand(1)
	k := RandomKey(4096, rng)
	ones := k.Ones()
	if ones < 1900 || ones > 2200 {
		t.Fatalf("key bias: %d/4096 ones", ones)
	}
	if len(k.String()) != 4096 {
		t.Fatal("String length wrong")
	}
}

func TestRandomLockEquivalentUnderCorrectKey(t *testing.T) {
	orig := genCircuit(t, 300, 21)
	lk, err := RandomLock(orig, RandomLockOptions{KeyBits: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if lk.Key.Len() != 32 || len(lk.KeyBits) != 32 {
		t.Fatalf("key size %d, want 32", lk.Key.Len())
	}
	res, err := lec.Check(orig, lk.Circuit, lec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("random-locked circuit not equivalent under correct key")
	}
	// Every key bit must be recorded consistently with its TIE type.
	for i, kb := range lk.KeyBits {
		tie := lk.Circuit.Gate(kb.Tie)
		if kb.Value != (tie.Type == netlist.TieHi) {
			t.Fatalf("key bit %d: value %v but TIE type %v", i, kb.Value, tie.Type)
		}
		if !lk.Circuit.Gate(kb.Gate).IsKeyGate() {
			t.Fatalf("key gate %d not marked", i)
		}
	}
}

func TestRandomLockWrongKeyCorrupts(t *testing.T) {
	orig := genCircuit(t, 300, 22)
	lk, err := RandomLock(orig, RandomLockOptions{KeyBits: 24, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	wrong := Key{Bits: append([]bool(nil), lk.Key.Bits...)}
	for i := range wrong.Bits {
		wrong.Bits[i] = !wrong.Bits[i]
	}
	wc, err := lk.ApplyKey(wrong)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.Compare(orig, wc, sim.CompareOptions{Patterns: 4096, Seed: 9, ObserveState: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.OER < 0.5 {
		t.Fatalf("all-flipped key barely corrupts: OER=%v", d.OER)
	}
	// Correct key re-applied must restore equivalence.
	cc, err := lk.ApplyKey(lk.Key)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := sim.EquivalentOpt(orig, cc, sim.CompareOptions{Patterns: 4096, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("re-applied correct key not equivalent")
	}
}

func TestRandomLockRejectsTinyCircuit(t *testing.T) {
	c := netlist.New("tiny")
	a := c.MustAdd("a", netlist.Input)
	c.MustAdd("o", netlist.Output, a)
	if _, err := RandomLock(c, RandomLockOptions{KeyBits: 64}); err == nil {
		t.Fatal("locking 64 bits into a wire accepted")
	}
}

func TestATPGLockEquivalentUnderCorrectKey(t *testing.T) {
	orig := genCircuit(t, 600, 33)
	lk, rep, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if lk.Key.Len() != 48 {
		t.Fatalf("key size %d, want 48 (padded %d)", lk.Key.Len(), rep.PaddedKeyBits)
	}
	res, err := lec.Check(orig, lk.Circuit, lec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("ATPG-locked circuit not equivalent (cex %v)", res.Counterexample)
	}
	if rep.FaultsApplied == 0 {
		t.Fatal("no faults were applied; scheme degenerated to pure padding")
	}
	if rep.RemovedGates == 0 {
		t.Fatal("no logic removed: re-synthesis did nothing")
	}
	t.Logf("report: %+v", *rep)
}

func TestATPGLockWrongKeyCorrupts(t *testing.T) {
	orig := genCircuit(t, 600, 34)
	lk, _, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 48, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Flip each single key bit: at least the comparator bits must
	// corrupt the circuit. (A single flipped bit always changes the
	// match set of its cube.)
	rng := sim.NewRand(77)
	flips := 0
	corrupted := 0
	for trial := 0; trial < 8; trial++ {
		i := rng.Intn(lk.Key.Len())
		wrong := Key{Bits: append([]bool(nil), lk.Key.Bits...)}
		wrong.Bits[i] = !wrong.Bits[i]
		wc, err := lk.ApplyKey(wrong)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := sim.EquivalentOpt(orig, wc, sim.CompareOptions{Patterns: 8192, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		flips++
		if !eq {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatalf("no single-bit key flip corrupted the circuit (%d trials)", flips)
	}
}

func TestATPGLockTieDistribution(t *testing.T) {
	orig := genCircuit(t, 800, 35)
	lk, _, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ones := lk.Key.Ones()
	// Uniform key: for 128 bits expect roughly half TIEHI; a heavy
	// skew would leak information through the TIE population.
	if ones < 40 || ones > 88 {
		t.Fatalf("TIEHI count %d/128 outside plausible uniform range", ones)
	}
	// Every TIE cell and key-gate must be DontTouch.
	for _, kb := range lk.KeyBits {
		if !lk.Circuit.Gate(kb.Tie).DontTouch || !lk.Circuit.Gate(kb.Gate).DontTouch {
			t.Fatal("restore circuitry not protected with DontTouch")
		}
	}
}

func TestATPGLockAreaAccounting(t *testing.T) {
	orig := genCircuit(t, 800, 36)
	_, rep, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedArea < 0 || rep.RestoreArea < 0 {
		t.Fatalf("negative areas: %+v", rep)
	}
	if rep.FaultsTried < rep.FaultsApplied {
		t.Fatalf("accounting broken: %+v", rep)
	}
}

func TestApplyKeyValidation(t *testing.T) {
	orig := genCircuit(t, 200, 37)
	lk, err := RandomLock(orig, RandomLockOptions{KeyBits: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lk.ApplyKey(Key{Bits: make([]bool, 5)}); err == nil {
		t.Fatal("wrong-length key accepted")
	}
}

func TestATPGLockDeterministic(t *testing.T) {
	orig := genCircuit(t, 400, 38)
	a, _, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 32, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 32, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key.String() != b.Key.String() {
		t.Fatal("same seed produced different keys")
	}
	if a.Circuit.BenchString() != b.Circuit.BenchString() {
		t.Fatal("same seed produced different locked netlists")
	}
}

// TestATPGLockStop: a raised Stop flag returns ErrCancelled before any
// module is locked, and a flag that stays lowered changes nothing.
func TestATPGLockStop(t *testing.T) {
	orig := genCircuit(t, 400, 38)
	var stop atomic.Bool
	stop.Store(true)
	lk, rep, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 32, Seed: 12, Stop: &stop})
	if !errors.Is(err, ErrCancelled) || lk != nil || rep != nil {
		t.Fatalf("raised flag: lock %v, report %v, err %v; want only ErrCancelled", lk != nil, rep, err)
	}
	if !stop.Load() {
		t.Fatal("ATPGLock lowered the caller's flag")
	}

	stop.Store(false)
	a, _, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 32, Seed: 12, Stop: &stop})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ATPGLock(orig, ATPGLockOptions{KeyBits: 32, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key.String() != b.Key.String() || a.Circuit.BenchString() != b.Circuit.BenchString() {
		t.Fatal("a lowered flag changed the locked netlist")
	}
}
