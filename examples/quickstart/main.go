// Quickstart: lock a small design, lift the key-nets to the BEOL,
// split the layout, mount the proximity attack, and verify that the
// key stays hidden while the correct BEOL completion restores the
// original function. Everything runs in a couple of seconds.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/flow"
	"repro/internal/lec"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func main() {
	// 1. A c880-scale combinational design.
	orig, err := bmarks.Load("c880", 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original design: %s\n", orig.ComputeStats())

	// 2. Run the secure flow: ATPG-based locking with 64 key bits,
	//    randomized TIE cells, key-nets lifted above M4.
	art, err := flow.Run(context.Background(), orig, flow.Config{KeyBits: 64, SplitLayer: 4, Seed: 42, UseATPGLock: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("locked design:   %s\n", art.Locked.Circuit.ComputeStats())
	fmt.Printf("secret key:      %s\n", art.Locked.Key)
	fmt.Printf("split at M4:     %d broken pins, %d of them key-nets\n",
		len(art.View.CutPins), len(art.View.KeyPins()))

	// 3. The untrusted foundry mounts the proximity attack.
	asg, err := attack.Proximity(art.View, attack.ProximityOptions{Seed: 7, KeyPostProcess: true})
	if err != nil {
		log.Fatal(err)
	}
	ccr := metrics.ComputeCCR(art.View, art.Secret, asg)
	fmt.Printf("attack result:   key logical CCR %.0f%% (random guessing = 50%%), physical CCR %.0f%%\n",
		ccr.KeyLogical*100, ccr.KeyPhysical*100)
	d, err := metrics.FunctionalOpt(orig, art.View, asg, sim.CompareOptions{Patterns: 1 << 14, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered chip:  HD %.0f%%, OER %.0f%% — not the original design\n", d.HD*100, d.OER*100)

	// 4. The trusted BEOL fab completes λ(x2): exact recovery.
	rec, err := art.View.Recombine(art.Secret.Assignment)
	if err != nil {
		log.Fatal(err)
	}
	res, err := lec.Check(orig, rec, lec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trusted BEOL:    LEC equivalent to original = %v\n", res.Equivalent)
}
