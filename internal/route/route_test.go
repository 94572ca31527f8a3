package route

import (
	"testing"

	"repro/internal/bmarks"
	"repro/internal/layout"
	"repro/internal/locking"
	"repro/internal/netlist"
	"repro/internal/place"
)

func placedLocked(t *testing.T, gates, keyBits int, seed uint64) (*locking.Locked, *layout.Layout) {
	t.Helper()
	c, err := bmarks.Generate(bmarks.Spec{Name: "r", Inputs: 12, Outputs: 6, Gates: gates, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lk, err := locking.RandomLock(c, locking.RandomLockOptions{KeyBits: keyBits, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := place.Place(lk.Circuit, place.Options{Seed: seed + 2, RandomizeTies: true})
	if err != nil {
		t.Fatal(err)
	}
	return lk, lay
}

func TestRouteAllCoversEveryPin(t *testing.T) {
	lk, lay := placedLocked(t, 400, 16, 100)
	res, err := RouteAll(lay, Options{SplitLayer: 4, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	// Count expected connections: every fanin pin of every live gate.
	want := 0
	c := lk.Circuit
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if c.Alive(id) {
			want += len(c.Gate(id).Fanin)
		}
	}
	if len(res.Pins) != want {
		t.Fatalf("routed %d pins, want %d", len(res.Pins), want)
	}
}

func TestKeyNetsLifted(t *testing.T) {
	lk, lay := placedLocked(t, 400, 16, 200)
	res, err := RouteAll(lay, Options{SplitLayer: 4, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyNets != 16 {
		t.Fatalf("lifted %d key-nets, want 16", res.KeyNets)
	}
	c := lk.Circuit
	for _, pr := range res.Pins {
		isTieDriven := c.Gate(pr.Driver).Type.IsTie()
		if isTieDriven != pr.Lifted {
			t.Fatalf("net %d→%d: tie=%v lifted=%v", pr.Driver, pr.Sink, isTieDriven, pr.Lifted)
		}
		if pr.Lifted {
			if pr.KeyLayer != 5 {
				t.Fatalf("key-net on layer %d, want 5 (split 4)", pr.KeyLayer)
			}
			if !pr.Cut(4) {
				t.Fatal("lifted key-net not cut by split")
			}
			// Stacked via directly on pins: stub == pin position, no
			// direction hint.
			if pr.AscendAt != lay.Pos(pr.Driver) || pr.DescendAt != lay.Pos(pr.Sink) {
				t.Fatal("key-net stubs not anchored at pins")
			}
			if pr.AscendDir != layout.DirNone || pr.DescendDir != layout.DirNone {
				t.Fatal("key-net leaks a direction hint")
			}
		}
	}
}

func TestPreliftKeepsKeyNetsDown(t *testing.T) {
	_, lay := placedLocked(t, 400, 16, 300)
	res, err := RouteAll(lay, Options{SplitLayer: 4, LiftKeyNets: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyNets != 0 {
		t.Fatalf("prelift lifted %d key-nets", res.KeyNets)
	}
}

func TestHigherSplitCutsFewerNets(t *testing.T) {
	_, lay := placedLocked(t, 800, 24, 400)
	res4, err := RouteAll(lay, Options{SplitLayer: 4, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	res6, err := RouteAll(lay, Options{SplitLayer: 6, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	cut4, cut6 := len(res4.CutPins()), len(res6.CutPins())
	if cut6 >= cut4 {
		t.Fatalf("split at M6 cut %d pins, split at M4 cut %d — expected fewer at M6", cut6, cut4)
	}
	// Key-nets are cut in both cases.
	if res4.KeyNets == 0 || res6.KeyNets == 0 {
		t.Fatal("key-nets missing")
	}
}

func TestLongNetsClimbHigher(t *testing.T) {
	_, lay := placedLocked(t, 800, 8, 500)
	res, err := RouteAll(lay, Options{SplitLayer: 6, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	// Average length per pair must be monotonically non-decreasing
	// over pairs that have nets.
	sum := make([]int, 4)
	cnt := make([]int, 4)
	for _, pr := range res.Pins {
		if pr.Lifted {
			continue
		}
		sum[pr.Pair] += pr.Length
		cnt[pr.Pair]++
	}
	prev := -1.0
	for p := 0; p < 3; p++ {
		if cnt[p] == 0 {
			continue
		}
		avg := float64(sum[p]) / float64(cnt[p])
		if avg < prev {
			t.Fatalf("pair %d average length %.1f below lower pair %.1f", p, avg, prev)
		}
		prev = avg
	}
}

func TestEscapeStubsPointTowardPartner(t *testing.T) {
	_, lay := placedLocked(t, 600, 8, 600)
	res, err := RouteAll(lay, Options{SplitLayer: 4, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Pins {
		if pr.Lifted || !pr.Cut(4) {
			continue
		}
		dp, sp := lay.Pos(pr.Driver), lay.Pos(pr.Sink)
		if dp == sp {
			continue
		}
		// The ascend stub must be no farther from the sink than the
		// driver pin itself (escape routing heads toward the sink).
		if pr.AscendAt.Dist(sp) > dp.Dist(sp) {
			t.Fatalf("escape stub runs away from sink: %v vs %v (sink %v)", pr.AscendAt, dp, sp)
		}
		if pr.AscendDir == layout.DirNone {
			t.Fatal("regular cut net lost its direction hint")
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	_, lay := placedLocked(t, 300, 8, 700)
	a, err := RouteAll(lay, Options{SplitLayer: 4, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RouteAll(lay, Options{SplitLayer: 4, LiftKeyNets: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalLength != b.TotalLength || a.TotalVias != b.TotalVias || len(a.Pins) != len(b.Pins) {
		t.Fatal("routing not deterministic")
	}
}

func TestCongestionDetours(t *testing.T) {
	// Tiny capacity forces overflow handling to kick in.
	_, lay := placedLocked(t, 800, 32, 800)
	res, err := routeAll(lay, Options{SplitLayer: 4, LiftKeyNets: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDetour == 0 && res.OverflowAccepts == 0 {
		t.Fatal("capacity-1 routing saw no congestion response")
	}
}
