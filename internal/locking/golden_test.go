//go:build amd64 && !amd64.v3

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

// goldenLocks are the locks TestATPGLockGolden pins: the ten locks of
// BenchmarkATPGLock (the daemon-mix designs at k64 and k128, lock seed
// 4001) and paper-b14's two b14 ×1.0 k128 cells (seeds 4001 and 6001).
var goldenLocks = []struct {
	bench   string
	scale   float64
	keyBits int
	seed    uint64
	paper   bool
}{
	{"c880", 1, 64, 4001, false}, {"c880", 1, 128, 4001, false},
	{"c1355", 1, 64, 4001, false}, {"c1355", 1, 128, 4001, false},
	{"c1908", 1, 64, 4001, false}, {"c1908", 1, 128, 4001, false},
	{"c3540", 1, 64, 4001, false}, {"c3540", 1, 128, 4001, false},
	{"b14", 0.1, 64, 4001, false}, {"b14", 0.1, 128, 4001, false},
	{"b14", 1, 128, 4001, true}, {"b14", 1, 128, 6001, true},
}

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
// The golden was computed on amd64 at the default GOAMD64 level. Other
// architectures, and amd64 at v3 and above, let the compiler fuse a
// multiply and an add into one FMA instruction, which can move the last
// bits of the report's areas, so this file only builds for that target.
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
