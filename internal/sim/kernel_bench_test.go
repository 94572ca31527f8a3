package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/bmarks"
	"repro/internal/sim"
)

// BenchmarkEvalWide times the simulation kernel alone: one full-circuit
// EvalWide pass over b14 at each width, on one goroutine. ns/gate is
// the wall time of one pass divided by the number of gates it
// evaluates, so widths compare per gate per w×64 patterns.
func BenchmarkEvalWide(b *testing.B) {
	c, err := bmarks.Load("b14", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	e, err := sim.NewEvaluator(c)
	if err != nil {
		b.Fatal(err)
	}
	order, err := c.TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range sim.Widths {
		b.Run(fmt.Sprintf("b14/width=%d", w), func(b *testing.B) {
			in := make([]uint64, e.NumInputs()*w)
			st := make([]uint64, e.NumState()*w)
			nets := e.NewWideNetBuffer(w)
			rng := sim.NewWideRandAt(1, 0, uint64(e.NumInputs()+e.NumState()), w)
			rng.FillWide(in)
			rng.FillWide(st)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EvalWide(w, in, st, nets)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(order)), "ns/gate")
		})
	}
}
