package sat_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/bmarks"
	"repro/internal/lec"
	"repro/internal/locking"
	"repro/internal/sat"
)

// digestSolver is a plain solver that chains, after every solve, the
// status, sat.InprocessingDigest and (on Sat) every variable's Value
// into one hash.
type digestSolver struct {
	*sat.Solver
	h      hash.Hash
	solves int
}

func newDigestSolver() *digestSolver {
	return &digestSolver{Solver: sat.New(), h: sha256.New()}
}

func (d *digestSolver) Solve(assumptions ...int) sat.Status {
	return d.record(d.Solver.Solve(assumptions...))
}

func (d *digestSolver) SolveLimited(budget int64, assumptions ...int) sat.Status {
	return d.record(d.Solver.SolveLimited(budget, assumptions...))
}

func (d *digestSolver) record(st sat.Status) sat.Status {
	d.solves++
	dg := sat.InprocessingDigest(d.Solver)
	d.h.Write([]byte{byte(st)})
	d.h.Write(dg[:])
	if st == sat.Sat {
		vals := make([]byte, d.NumVars())
		for v := range vals {
			if d.Value(v + 1) {
				vals[v] = 1
			}
		}
		d.h.Write(vals)
	}
	return st
}

// goldenAttack runs the SAT attack on bench ×1.0 under a keyBits ATPG
// lock drawn from seed, on solver s.
func goldenAttack(t *testing.T, s sat.Interface, bench string, keyBits int, seed uint64) error {
	orig, err := bmarks.Load(bench, 1)
	if err != nil {
		return err
	}
	lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: keyBits, Seed: seed})
	if err != nil {
		return err
	}
	res, err := attack.SATAttackOpt(lk, orig, attack.SATAttackOptions{Solver: s})
	if err == nil && !res.Converged {
		t.Errorf("%s attack did not converge", bench)
	}
	return err
}

// inprocessingRun is one entry of the golden file.
type inprocessingRun struct {
	Solves int       `json:"solves"`
	Digest string    `json:"digest"`
	Stats  sat.Stats `json:"stats"`
}

// TestInprocessingGolden replays three fixed incremental SAT workloads
// of the daemon's job mix — the oracle-guided attack on c1908 with a
// 64-bit ATPG lock and on c880 with a 128-bit one, and the LEC miter of c3540 against its 128-bit
// ATPG-locked netlist — on a plain solver, and compares a chained hash
// of the solver state after every solve (work counters, arena, the
// elimination stack and every model value) to
// testdata/inprocessing_golden.json. Inprocessing changes that are
// meant to be byte-identical must leave it unchanged. Stats fields
// added after the golden was recorded are not compared; the digest
// covers the recorded ones. A failure logs the whole computed file; copy
// it over the golden only when a change moves the search on purpose.
func TestInprocessingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays three daemon-mix SAT workloads")
	}
	runs := []struct {
		name string
		run  func(s sat.Interface) error
	}{
		{"attack c1908 k64", func(s sat.Interface) error { return goldenAttack(t, s, "c1908", 64, 3) }},
		{"attack c880 k128", func(s sat.Interface) error { return goldenAttack(t, s, "c880", 128, 2) }},
		{"verify c3540 k128", func(s sat.Interface) error {
			orig, err := bmarks.Load("c3540", 1)
			if err != nil {
				return err
			}
			lk, _, err := locking.ATPGLock(orig, locking.ATPGLockOptions{KeyBits: 128, Seed: 10})
			if err != nil {
				return err
			}
			res, err := lec.Check(orig, lk.Circuit, lec.Options{Seed: 10, Solver: s})
			if err == nil && !res.Equivalent {
				t.Errorf("locked c3540 not equivalent under its key")
			}
			return err
		}},
	}
	got := map[string]inprocessingRun{}
	for _, r := range runs {
		d := newDigestSolver()
		if err := r.run(d); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = inprocessingRun{Solves: d.solves, Digest: hex.EncodeToString(d.h.Sum(nil)), Stats: d.Stats}
	}
	path := filepath.Join("testdata", "inprocessing_golden.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]inprocessingRun
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		g, w := got[r.name], want[r.name]
		if g.Solves != w.Solves || g.Digest != w.Digest {
			t.Errorf("%s: %d solves, digest %s; golden %d solves, digest %s", r.name, g.Solves, g.Digest, w.Solves, w.Digest)
		}
	}
	if t.Failed() {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("computed %s:\n%s", path, b)
	}
}
