// ITC'99 flow: the paper's headline use case — protect a large-scale
// sequential design (b14-class) end to end, then measure both security
// (Table I/II metrics at M4 and M6) and layout cost (Fig. 5 metrics)
// against the unprotected baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func main() {
	const scale = 0.1 // raise toward 1.0 for published-size runs
	orig, err := bmarks.Load("b14", scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("b14 @ scale %.2f: %s\n\n", scale, orig.ComputeStats())

	for _, splitLayer := range []int{4, 6} {
		art, err := flow.Run(context.Background(), orig, flow.Config{
			KeyBits:     128,
			SplitLayer:  splitLayer,
			Seed:        14,
			UseATPGLock: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if r := art.LockReport; r != nil {
			fmt.Printf("M%d synthesis stage: %d faults applied, %d gates removed, %.0f um^2 freed, %.0f um^2 restore\n",
				splitLayer, r.FaultsApplied, r.RemovedGates, r.RemovedArea, r.RestoreArea)
		}

		asg, err := attack.Proximity(art.View, attack.ProximityOptions{Seed: 77, KeyPostProcess: true})
		if err != nil {
			log.Fatal(err)
		}
		ccr := metrics.ComputeCCR(art.View, art.Secret, asg)
		d, err := metrics.FunctionalOpt(orig, art.View, asg, sim.CompareOptions{Patterns: 1 << 15, Seed: 78})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("M%d security: key logical %.0f%%, key physical %.0f%%, regular %.0f%%, HD %.0f%%, OER %.0f%%\n",
			splitLayer, ccr.KeyLogical*100, ccr.KeyPhysical*100, ccr.Regular*100, d.HD*100, d.OER*100)

		base, err := flow.MeasurePPA(art, flow.VariantBaseline)
		if err != nil {
			log.Fatal(err)
		}
		lifted, err := flow.MeasurePPA(art, flow.VariantSplit)
		if err != nil {
			log.Fatal(err)
		}
		a, p, dd := lifted.Delta(base)
		fmt.Printf("M%d layout cost vs baseline: area %+.1f%%, power %+.1f%%, timing %+.1f%%\n\n",
			splitLayer, a, p, dd)
	}
	fmt.Println("paper expectation: logical CCR pinned at ~50% for both layers (split-layer agnostic),")
	fmt.Println("physical CCR ~0, OER 100%, area savings with modest power/timing cost")
}
