package bmarks

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generate_golden.json from this run")

// goldenScales are the scales TestGenerateGolden pins: the reduced size
// the tests and CI tables use, and (outside -short) the published one.
func goldenScales() []float64 {
	if testing.Short() {
		return []float64{0.1}
	}
	return []float64{0.1, 1.0}
}

// TestGenerateGolden pins the generator's output: the sha256 of
// BenchString for every registry design, keyed "<name>@<scale>".
// Every table, lock and attack starts from these netlists, so a
// generator change that moves any of them moves every number
// downstream. Regenerate it (with both scales, so not under -short) by
//
//	go test ./internal/bmarks -run TestGenerateGolden -update
func TestGenerateGolden(t *testing.T) {
	path := filepath.Join("testdata", "generate_golden.json")
	got := make(map[string]string)
	for _, scale := range goldenScales() {
		for _, name := range Names() {
			c, err := Load(name, scale)
			if err != nil {
				t.Fatalf("%s@%g: %v", name, scale, err)
			}
			sum := sha256.Sum256([]byte(c.BenchString()))
			got[fmt.Sprintf("%s@%g", name, scale)] = hex.EncodeToString(sum[:])
		}
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs both scales; run it without -short")
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: BenchString sha256 %s, golden %s", key, sum, want[key])
		}
	}
}
