package place

import (
	"testing"

	"repro/internal/bmarks"
	"repro/internal/layout"
	"repro/internal/locking"
	"repro/internal/netlist"
)

func testCircuit(t *testing.T, gates int, seed uint64) *netlist.Circuit {
	t.Helper()
	c, err := bmarks.Generate(bmarks.Spec{Name: "p", Inputs: 12, Outputs: 6, Gates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlaceLegal(t *testing.T) {
	c := testCircuit(t, 400, 1)
	lay, err := Place(c, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[layout.Point]netlist.GateID)
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		cell := lay.Cells[id]
		if !cell.Placed {
			t.Fatalf("gate %d unplaced", id)
		}
		if cell.Pad {
			continue
		}
		if prev, dup := seen[cell.Pos]; dup {
			t.Fatalf("gates %d and %d share slot %v", prev, id, cell.Pos)
		}
		seen[cell.Pos] = id
		if cell.Pos.X < 0 || cell.Pos.X >= lay.W || cell.Pos.Y < 0 || cell.Pos.Y >= lay.H {
			t.Fatalf("gate %d outside die: %v", id, cell.Pos)
		}
		if lay.At(cell.Pos) != id {
			t.Fatalf("occupancy grid inconsistent at %v", cell.Pos)
		}
	}
}

func TestPlaceImprovesWirelength(t *testing.T) {
	c := testCircuit(t, 600, 3)
	lay0, err := place(c, Options{Seed: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lay3, err := place(c, Options{Seed: 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if lay3.TotalHPWL() > lay0.TotalHPWL() {
		t.Fatalf("more passes worsened HPWL: %d > %d", lay3.TotalHPWL(), lay0.TotalHPWL())
	}
}

func TestPlaceDeterministic(t *testing.T) {
	c := testCircuit(t, 300, 5)
	a, err := Place(c, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(c, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i].Placed != b.Cells[i].Placed || a.Cells[i].Pos != b.Cells[i].Pos {
			t.Fatal("same seed produced different placements")
		}
	}
}

// TestTieRandomizationDecorrelates verifies the core security property
// of the placement stage: with RandomizeTies, the distance between a
// TIE cell and its key-gate is statistically indistinguishable from the
// distance to an unrelated key-gate — no proximity hint survives.
func TestTieRandomizationDecorrelates(t *testing.T) {
	c := testCircuit(t, 1500, 7)
	lk, err := locking.RandomLock(c, locking.RandomLockOptions{KeyBits: 48, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := place(lk.Circuit, Options{Seed: 9, RandomizeTies: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Compare each TIE's distance to its own key-gate vs the mean
	// distance to all key-gates: the rank of the true key-gate should
	// be uniform, so on average ~half of the others are closer.
	totalRank, n := 0.0, 0
	for _, kb := range lk.KeyBits {
		tiePos := lay.Pos(kb.Tie)
		own := tiePos.Dist(lay.Pos(kb.Gate))
		closer := 0
		for _, other := range lk.KeyBits {
			if other.Gate != kb.Gate && tiePos.Dist(lay.Pos(other.Gate)) < own {
				closer++
			}
		}
		totalRank += float64(closer) / float64(len(lk.KeyBits)-1)
		n++
	}
	meanRank := totalRank / float64(n)
	if meanRank < 0.30 || meanRank > 0.70 {
		t.Fatalf("TIE placement leaks proximity: mean rank of true key-gate = %.3f (want ≈0.5)", meanRank)
	}
	// All TIE cells must be fixed.
	for _, kb := range lk.KeyBits {
		if !lay.Cells[kb.Tie].Fixed {
			t.Fatal("randomized TIE cell not fixed")
		}
	}
}

// TestNaiveTiePlacementCorrelates is the ablation: without
// randomization, the optimizer pulls TIE cells toward their key-gates
// and leaks the assignment (Fig. 2(a)).
func TestNaiveTiePlacementCorrelates(t *testing.T) {
	c := testCircuit(t, 1500, 17)
	lk, err := locking.RandomLock(c, locking.RandomLockOptions{KeyBits: 48, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := place(lk.Circuit, Options{Seed: 19, RandomizeTies: false}, 6)
	if err != nil {
		t.Fatal(err)
	}
	totalRank, n := 0.0, 0
	for _, kb := range lk.KeyBits {
		tiePos := lay.Pos(kb.Tie)
		own := tiePos.Dist(lay.Pos(kb.Gate))
		closer := 0
		for _, other := range lk.KeyBits {
			if other.Gate != kb.Gate && tiePos.Dist(lay.Pos(other.Gate)) < own {
				closer++
			}
		}
		totalRank += float64(closer) / float64(len(lk.KeyBits)-1)
		n++
	}
	meanRank := totalRank / float64(n)
	if meanRank > 0.35 {
		t.Fatalf("naive placement unexpectedly decorrelated: mean rank %.3f", meanRank)
	}
}

func TestPadsOnBoundary(t *testing.T) {
	c := testCircuit(t, 200, 11)
	lay, err := Place(c, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Inputs() {
		if !lay.Cells[id].Pad || lay.Cells[id].Pos.X != -1 {
			t.Fatalf("input %d not on left boundary: %+v", id, lay.Cells[id])
		}
	}
	for _, id := range c.Outputs() {
		if !lay.Cells[id].Pad || lay.Cells[id].Pos.X != lay.W {
			t.Fatalf("output %d not on right boundary: %+v", id, lay.Cells[id])
		}
	}
}
