//go:build amd64

package locking

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bmarks"
)

// lockHash is the SHA-256 of everything a lock hands on: the locked
// netlist, the key, where each key bit lives, and the report.
func lockHash(t *testing.T, bench string, scale float64, keyBits int, seed uint64) string {
	t.Helper()
	orig, err := bmarks.Load(bench, scale)
	if err != nil {
		t.Fatal(err)
	}
	lk, rep, err := ATPGLock(orig, ATPGLockOptions{KeyBits: keyBits, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%v\n%+v\n", lk.Circuit.BenchString(), lk.Key.String(), lk.KeyBits, *rep)
	return hex.EncodeToString(h.Sum(nil))
}

// TestATPGLockGolden pins the ATPG lock byte for byte: netlist, key,
// key-bit placement and report of each goldenLocks entry must hash to
// the value in testdata/atpglock_golden.json. The b14 ×1.0 locks are
// skipped under -short. When a change moves the locks on purpose, run
//
//	go test -run TestATPGLockGolden -v ./internal/locking/
//
// and copy the logged hashes of the moved locks into the golden file.
//
// The golden holds on amd64 at every GOAMD64 level (see TestRunITCGolden
// in internal/flow). Other architectures may fuse a multiply and an add
// into one FMA instruction, which can move the last bits of the
// report's areas, so this file only builds on amd64.
func TestATPGLockGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "atpglock_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(goldenLocks) {
		t.Errorf("golden holds %d locks, the test %d", len(golden), len(goldenLocks))
	}
	for _, g := range goldenLocks {
		name := fmt.Sprintf("%s-x%g-k%d-s%d", g.bench, g.scale, g.keyBits, g.seed)
		t.Run(name, func(t *testing.T) {
			if g.paper && testing.Short() {
				t.Skip("paper-scale lock in -short mode")
			}
			got := lockHash(t, g.bench, g.scale, g.keyBits, g.seed)
			t.Logf("%q: %q", name, got)
			if want := golden[name]; got != want {
				t.Errorf("lock moved: hash %s, golden %s", got, want)
			}
		})
	}
}
