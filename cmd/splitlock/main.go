// Command splitlock runs the paper's secure physical design flow on a
// benchmark: lock the FEOL with TIE-keyed restore circuitry, place with
// randomized TIE cells, route with key-nets lifted to the BEOL, and
// split. It reports the synthesis-stage economics, the layout cost
// versus the unprotected baseline, and (optionally) writes the locked
// netlist in .bench format. A generated benchmark follows the tables'
// design rule: -scale 0 runs at the default 0.1, and a -scale outside
// [0, 1] or -keybits outside [0, 4096] exits 1 before any work starts.
//
//	splitlock -bench b14 -scale 0.1 -split 4 -keybits 128
//	splitlock -bench c432 -o locked.bench
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/flow"
	"repro/internal/netlist"
)

func main() {
	var (
		bench   = flag.String("bench", "b14", "benchmark name (c432..c7552, b14..b22)")
		file    = flag.String("file", "", "read a .bench netlist instead of a generated benchmark")
		scale   = flag.Float64("scale", 0.1, "benchmark scale factor")
		splitAt = flag.Int("split", 4, "split layer (first BEOL layer)")
		keyBits = flag.Int("keybits", 128, "key size")
		seed    = flag.Uint64("seed", 1, "flow seed")
		random  = flag.Bool("random-lock", false, "use EPIC-style random locking instead of the ATPG scheme")
		out     = flag.String("o", "", "write the locked netlist (.bench) to this file")
	)
	flag.Parse()

	var orig *netlist.Circuit
	var err error
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			fatal(ferr)
		}
		orig, err = netlist.ParseBench(f, *file)
		f.Close()
	} else if err = flow.ValidateDesign(*bench, *scale, *keyBits, 0); err == nil {
		orig, err = flow.LoadBenchmark(*bench, *scale)
	}
	if err != nil {
		fatal(err)
	}
	st := orig.ComputeStats()
	fmt.Printf("design %s: %s\n", orig.Name, st)

	art, err := flow.Run(context.Background(), orig, flow.Config{
		KeyBits:     *keyBits,
		SplitLayer:  *splitAt,
		Seed:        *seed,
		UseATPGLock: !*random,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("flow completed in %v\n", art.Runtime)
	fmt.Printf("key: %d bits (%d TIEHI / %d TIELO)\n",
		art.Locked.Key.Len(), art.Locked.Key.Ones(), art.Locked.Key.Len()-art.Locked.Key.Ones())
	if art.LockReport != nil {
		r := art.LockReport
		fmt.Printf("synthesis stage: %d faults tried, %d applied, %d gates removed\n",
			r.FaultsTried, r.FaultsApplied, r.RemovedGates)
		fmt.Printf("  removed area %.1f um^2, restore area %.1f um^2, padded key bits %d\n",
			r.RemovedArea, r.RestoreArea, r.PaddedKeyBits)
	}
	fmt.Printf("layout: %dx%d slots, die %.1f um^2, total wirelength %d, vias %d\n",
		art.Layout.W, art.Layout.H, art.Layout.DieAreaUM2(), art.Routes.TotalLength, art.Routes.TotalVias)
	fmt.Printf("split at M%d: %d broken pins (%d key, %d regular), %d lifted key-nets\n",
		*splitAt, len(art.View.CutPins), len(art.View.KeyPins()), len(art.View.RegularPins()), art.Routes.KeyNets)

	base, err := flow.MeasurePPA(art, flow.VariantBaseline)
	if err != nil {
		fatal(err)
	}
	lifted, err := flow.MeasurePPA(art, flow.VariantSplit)
	if err != nil {
		fatal(err)
	}
	a, p, d := lifted.Delta(base)
	fmt.Printf("layout cost vs unprotected: area %+.1f%%, power %+.1f%%, timing %+.1f%%\n", a, p, d)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := art.Locked.Circuit.WriteBench(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("locked netlist written to %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "splitlock: %v\n", err)
	os.Exit(1)
}
