package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a table
// cell or a daemon job) share its key; Parent indexes the enclosing span
// (-1 for the operation's root).
type span struct {
	Name   string  `json:"name"`
	Op     string  `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps spans and work counters in memory for the traced run;
// they are written out once the run ends. Safe for concurrent use.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: make(map[string]float64)}
}

func (r *recorder) now() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span and returns its index.
func (r *recorder) begin(op, name string, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: t, End: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add accumulates a work counter.
func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s float64
	for _, sp := range r.spans {
		if sp.Name == name && sp.End >= 0 {
			s += sp.End - sp.Start
		}
	}
	return s
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by child spans. Children of one span never overlap: each
// operation runs its layers one after another.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]float64, len(r.spans))
	for _, sp := range r.spans {
		if sp.Parent >= 0 && sp.End >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string]float64)
	for i, sp := range r.spans {
		if sp.End >= 0 {
			out[sp.Name] += sp.End - sp.Start - child[i]
		}
	}
	return out
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile above the median that has
// at least ten samples strictly beyond it, with its nearest-rank value.
// With too few samples for any such tail it falls back to the slowest
// sample, p100.
func tail(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p := 99.0; p > 50; p-- {
		v := nearestRank(s, p)
		if beyond := len(s) - sort.SearchFloat64s(s, math.Nextafter(v, math.Inf(1))); beyond >= 10 {
			return p, v
		}
	}
	return 100, nearestRank(s, 100)
}

// nearestRank is the nearest-rank percentile of a sorted sample.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p / 100 * float64(len(sorted)))
	if float64(rank) < p/100*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
