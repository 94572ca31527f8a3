//go:build amd64

package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runmanifest"
)

var updateGolden = flag.Bool("update", false, "rewrite the Table III, Fig. 5 and ideal-attack goldens in testdata from this run")

// TestRunITCGolden pins the exact Table I/II cell values (CCR,
// footnote-6 LogicalNoPost, HD, OER) of a small sweep to a checked-in
// manifest, so a change that should leave the tables byte-identical is
// checked on every test run. When a change moves the tables on
// purpose, regenerate the golden from the repository root with
//
//	go run ./cmd/tables -table 1 -benchmarks b14,b15 -scale 0.03 -keybits 48 -patterns 4096 -seed 4 -manifest internal/flow/testdata/itc_golden.json
//
// The golden was computed on amd64 and holds at every GOAMD64 level: on
// amd64 the Go compiler (1.24) does not fuse a multiply and an add into
// one FMA instruction, not even at v3, and CI runs the goldens under
// GOAMD64=v3 too. Other architectures may fuse them, which can move the
// last bits of a float result, so this file only builds on amd64.
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

// TestRunISCASGolden pins every Table III number (PNR, CCR, HD, OER
// per scheme) of a two-design run. Regenerate it from the repository
// root, only when a change moves the table on purpose, with
//
//	go test ./internal/flow -run TestRunISCASGolden -update
//
// It matches `tables -table 3 -benchmarks c432,c880 -keybits 32
// -patterns 4096 -seed 3`.
func TestRunISCASGolden(t *testing.T) {
	rows, err := RunISCAS(context.Background(), ISCASOptions{
		Benchmarks: []string{"c432", "c880"}, KeyBits: 32, Patterns: 4096, Seed: 3, Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "iscas_golden.json", rows)
}

// TestRunFig5Golden pins every Fig. 5 cost delta of a two-design run
// (`tables -fig 5 -benchmarks b14,b15 -scale 0.05 -keybits 32 -seed 3`).
// Regenerate it with
//
//	go test ./internal/flow -run TestRunFig5Golden -update
func TestRunFig5Golden(t *testing.T) {
	rows, err := RunFig5(context.Background(), Fig5Options{
		Benchmarks: []string{"b14", "b15"}, Scale: 0.05, KeyBits: 32, Seed: 3, Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5_golden.json", rows)
}

// TestRunIdealGolden pins the ideal-attack tallies of a two-design run
// (`tables -ideal -benchmarks b14,b15 -scale 0.03 -keybits 4 -runs 200
// -seed 3`). The key is 4 bits wide so that both tallies depend on the
// seed: at 32 bits every run errs and none recovers the key, whatever
// the seed. Regenerate it with
//
//	go test ./internal/flow -run TestRunIdealGolden -update
func TestRunIdealGolden(t *testing.T) {
	rows, err := RunIdeal(context.Background(), IdealOptions{
		Benchmarks: []string{"b14", "b15"}, Scale: 0.03, KeyBits: 4, Runs: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ideal_golden.json", rows)
}

// checkGolden compares rows, as indented JSON, with testdata/name, or
// rewrites that file under -update.
func checkGolden(t *testing.T, name string, rows any) {
	t.Helper()
	got, err := json.MarshalIndent(rows, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s moved:\n got  %s\n want %s", name, got, want)
	}
}
