package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repro/internal/flow"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 2, 12, 20, 21, 32, 40, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // distinct, unsorted
		}
		pct, v := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct == 100 {
			if beyond != 0 || n > 20 {
				t.Errorf("n=%d: fell back to the slowest sample %g with %d beyond", n, v, beyond)
			}
		} else if beyond < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond, want >= 10", n, pct, beyond)
		}
		// The next whole percentile up must leave fewer than ten beyond.
		if pct < 99 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			nv := nearestRank(s, pct+1)
			nb := 0
			for _, x := range s {
				if x > nv {
					nb++
				}
			}
			if nb >= 10 {
				t.Errorf("n=%d: p%g chosen but p%g still has %d beyond", n, pct, pct+1, nb)
			}
		}
	}
	if pct, _ := tail(make32()); pct != 68 {
		t.Errorf("32 samples: tail p%g, want p68", pct)
	}
}

func make32() []float64 {
	xs := make([]float64, 32)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestJobMixDeterministic(t *testing.T) {
	n := batchSize(40)
	a, b := jobMix(7, n), jobMix(7, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different job mix")
	}
	if len(a) != n {
		t.Fatalf("mix has %d jobs, want %d", len(a), n)
	}
	if reflect.DeepEqual(a, jobMix(8, n)) {
		t.Error("different seeds gave the same job mix")
	}
	distinct := func(mix []jobSpecKey) map[jobSpecKey]int {
		m := make(map[jobSpecKey]int)
		for _, k := range mix {
			m[k]++
		}
		return m
	}
	ka, k8 := specKeys(a), specKeys(jobMix(8, n))
	da, d8 := distinct(ka), distinct(k8)
	if len(da) != n-n/repeatShare {
		t.Errorf("%d distinct specs, want %d fresh", len(da), n-n/repeatShare)
	}
	for k := range da {
		if _, ok := d8[k]; !ok {
			t.Errorf("fresh job %v missing under another seed", k)
		}
	}
	for _, s := range a {
		if err := s.Validate(); err != nil {
			t.Errorf("invalid spec %+v: %v", s, err)
		}
	}
}

func TestCheckJobMatchesSpec(t *testing.T) {
	spec := flow.JobSpec{Kind: flow.JobLock, Bench: "c880", Scale: 1, KeyBits: 128, SplitLayer: 6}
	payload := func(r flow.LockJobResult) []byte {
		b, _ := json.Marshal(r)
		return b
	}
	ok := flow.LockJobResult{Bench: "c880", LockedGates: 500, KeyBits: 128, SplitLayer: 6}
	if err := checkJob(spec, payload(ok)); err != nil {
		t.Errorf("matching lock payload rejected: %v", err)
	}
	short, moved := ok, ok
	short.KeyBits = 64
	moved.SplitLayer = 4
	for _, r := range []flow.LockJobResult{short, moved} {
		if checkJob(spec, payload(r)) == nil {
			t.Errorf("payload %+v accepted for spec %+v", r, spec)
		}
	}
}

type jobSpecKey string

func specKeys(mix []flow.JobSpec) []jobSpecKey {
	var out []jobSpecKey
	for _, s := range mix {
		b, _ := json.Marshal(s)
		out = append(out, jobSpecKey(b))
	}
	return out
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "flow.cell", Parent: -1, Start: 0, End: 10},
		{Name: "attack.proximity", Parent: 0, Start: 1, End: 4},
		{Name: "sim.hdoer", Parent: 0, Start: 4, End: 5},
	}
	got := r.selfTimes()
	want := map[string]float64{"flow.cell": 6, "attack.proximity": 3, "sim.hdoer": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if v := r.total("flow.cell"); v != 10 {
		t.Errorf("total %g, want 10", v)
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the benchmark
// contract and against the metrics and workloads this program emits.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	for _, n := range names {
		if _, err := findWorkload(n); err != nil {
			t.Errorf("declared workload %s: %v", n, err)
		}
	}
	check := func(ms []metric, defs []metricDef, bounded bool) {
		if len(ms) != len(defs) {
			t.Errorf("%d metrics declared, program emits %d", len(ms), len(defs))
		}
		for i, m := range ms {
			if seen[m.Name] || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q (%q): bad or repeated name or unit", m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("metric %s: bad bound", m.Name)
			}
			if i < len(defs) && (defs[i].name != m.Name || defs[i].unit != m.Unit) {
				t.Errorf("metric %d: declared %s %s, program emits %s %s", i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check(f.EndToEnd, endToEnd, true)
	check(f.PerLayer, perLayer, false)
	setup := math.Inf(-1)
	for _, m := range f.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range f.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("setup_s bound %g is not the largest (%s has %g)", setup, m.Name, *m.Bound)
		}
	}
}
