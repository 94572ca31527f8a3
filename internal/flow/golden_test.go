//go:build amd64 && !amd64.v3

package flow

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/runmanifest"
)

// TestRunITCGolden pins the exact Table I/II cell values (CCR,
// footnote-6 LogicalNoPost, HD, OER) of a small sweep to a checked-in
// manifest, so a change that should leave the tables byte-identical is
// checked on every test run. When a change moves the tables on
// purpose, regenerate the golden from the repository root with
//
//	go run ./cmd/tables -table 1 -benchmarks b14,b15 -scale 0.03 -keybits 48 -patterns 4096 -seed 4 -manifest internal/flow/testdata/itc_golden.json
//
// The golden was computed on amd64 at the default GOAMD64 level. Other
// architectures, and amd64 at v3 and above, let the compiler fuse a
// multiply and an add into one FMA instruction, which can move the last
// bits of a float result, so this file only builds for that target.
func TestRunITCGolden(t *testing.T) {
	golden, err := runmanifest.Load(filepath.Join("testdata", "itc_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	opt := ITCOptions{
		Benchmarks:  []string{"b14", "b15"},
		Scale:       0.03,
		KeyBits:     48,
		Patterns:    4096,
		Seed:        4,
		SplitLayers: []int{4, 6},
		Parallel:    true,
	}
	fp := runmanifest.Fingerprint{
		Experiment: "itc", Scale: opt.Scale, KeyBits: opt.KeyBits, Patterns: opt.Patterns,
		Seed: opt.Seed, SplitLayers: opt.SplitLayers,
	}
	if err := golden.Fingerprint().CompatibleWith(fp); err != nil {
		t.Fatalf("golden was computed under another configuration: %v", err)
	}
	rows, err := RunITC(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, row := range rows {
		for _, layer := range opt.SplitLayers {
			key := ITCCellKey(row.Benchmark, layer)
			var want SplitResult
			ok, err := golden.Get(key, &want)
			if err != nil || !ok {
				t.Fatalf("golden has no cell %s (err %v)", key, err)
			}
			got, err := json.Marshal(row.Results[layer])
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(wantJSON) {
				t.Errorf("cell %s moved:\n got  %s\n want %s", key, got, wantJSON)
			}
			cells++
		}
	}
	if cells != golden.Len() {
		t.Errorf("compared %d cells, golden holds %d", cells, golden.Len())
	}
}
