// Command attack mounts the FEOL-centric proximity attack of Wang et
// al. [7] (with the paper's key-aware post-processing) against a
// split-manufactured layout produced by the secure flow, and reports
// every Sec. IV metric: CCR (regular / key-logical / key-physical),
// HD, OER and PNR. It locks, attacks and simulates with the seeds of
// the `tables` Table I/II cell of the same benchmark, scale, key size,
// split layer, pattern count and -seed, so it prints that cell's CCR,
// HD and OER, plus the PNR the tables leave out. Like tables, it runs a
// -scale of 0 at the default 0.1 and refuses a design the daemons
// refuse (-scale outside [0, 1], -keybits outside [0, 4096]) before
// any work starts.
//
//	attack -bench b14 -scale 0.1 -split 4
//	attack -bench b14 -no-postprocess     # footnote 6 setup
//	attack -bench b14 -ideal -runs 10000  # ideal proximity attack
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func main() {
	var (
		bench    = flag.String("bench", "b14", "benchmark name")
		scale    = flag.Float64("scale", 0.1, "benchmark scale factor")
		splitAt  = flag.Int("split", 4, "split layer")
		keyBits  = flag.Int("keybits", 128, "key size")
		seed     = flag.Uint64("seed", 1, "seed")
		patterns = flag.Int("patterns", 1<<16, "HD/OER simulation patterns")
		noPost   = flag.Bool("no-postprocess", false, "disable key-aware post-processing (footnote 6)")
		ideal    = flag.Bool("ideal", false, "run the ideal proximity attack instead")
		runs     = flag.Int("runs", 2000, "ideal-attack runs")
	)
	flag.Parse()

	if err := flow.ValidateDesign(*bench, *scale, *keyBits, *patterns); err != nil {
		fatal(err)
	}
	if err := flow.ValidateSplitLayer(*splitAt); err != nil {
		fatal(err)
	}
	if *splitAt == 0 {
		*splitAt = 4
	}
	if *ideal {
		res, err := flow.RunIdealAttack(context.Background(), *bench, *scale, *keyBits, *runs, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ideal proximity attack on %s: %d runs, OER %.2f%%, full-key recoveries %d\n",
			*bench, res.Runs, res.OERPercent(), res.FullKeyRecoveries)
		return
	}

	orig, err := flow.LoadBenchmark(*bench, *scale)
	if err != nil {
		fatal(err)
	}
	art, err := flow.Run(context.Background(), orig, flow.Config{
		KeyBits:     *keyBits,
		SplitLayer:  *splitAt,
		Seed:        flow.LayerSeed(*seed, *splitAt),
		UseATPGLock: true,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("attacking %s split at M%d: %d broken pins (%d key)\n",
		orig.Name, *splitAt, len(art.View.CutPins), len(art.View.KeyPins()))

	asg, err := attack.Proximity(art.View, attack.ProximityOptions{
		Seed:           *seed + 7,
		KeyPostProcess: !*noPost,
	})
	if err != nil {
		fatal(err)
	}
	ccr := metrics.ComputeCCR(art.View, art.Secret, asg)
	fmt.Printf("CCR: regular %.1f%%, key logical %.1f%%, key physical %.1f%%\n",
		ccr.Regular*100, ccr.KeyLogical*100, ccr.KeyPhysical*100)
	fmt.Printf("PNR: %.1f%%\n", metrics.PNR(art.View, art.Secret, asg)*100)
	d, err := metrics.FunctionalOpt(orig, art.View, asg, sim.CompareOptions{Patterns: *patterns, Seed: *seed + 8})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("HD %.1f%%, OER %.1f%% over %d patterns\n", d.HD*100, d.OER*100, d.Patterns)
	if ccr.KeyLogical > 0.45 && ccr.KeyLogical < 0.55 {
		fmt.Println("→ attacker at random-guessing level on the key, as the paper claims")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "attack: %v\n", err)
	os.Exit(1)
}
