package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/flow"
)

// defaultSeed is the seed whose outputs are recorded byte for byte under
// perfbench/expected/ (the cmd/tables default seed).
const defaultSeed = 1

// checkOutputs validates a plain run's outputs and returns every failed
// operation with the reason. The default seed compares against recorded
// bytes; any other seed checks the workload's invariants.
func checkOutputs(workload string, st runState, root string, seed uint64, out *runOut) map[string]string {
	failures := make(map[string]string)
	for k, why := range out.failed {
		failures[k] = why
	}
	if seed == defaultSeed {
		want, err := readExpected(root, workload)
		if err != nil {
			failures["expected"] = err.Error()
			return failures
		}
		for k, b := range want {
			got, ok := out.outputs[k]
			if !ok {
				if _, failed := failures[k]; !failed {
					failures[k] = "missing output"
				}
				continue
			}
			if string(got) != string(compact(b)) {
				failures[k] = fmt.Sprintf("output %s differs from the recorded %s", got, compact(b))
			}
		}
		for k := range out.outputs {
			if _, ok := want[k]; !ok {
				failures[k] = "output not in the recorded set"
			}
		}
		return failures
	}
	for k, b := range out.outputs {
		if err := st.check(k, b); err != nil {
			failures[k] = err.Error()
		}
	}
	return failures
}

// checkCell holds for every Table I/II cell: the proximity attack's
// recovered netlist errs on every pattern (OER = 100%), and key-net
// logical CCR sits at random-guess level (50 ± 15%).
func checkCell(b []byte) error {
	var r flow.SplitResult
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	if r.OER != 1 {
		return fmt.Errorf("OER %.4f%%, want 100%%", 100*r.OER)
	}
	if math.Abs(r.CCR.KeyLogical-0.5) > 0.15 {
		return fmt.Errorf("key-logical CCR %.1f%% outside 50 ± 15%%", 100*r.CCR.KeyLogical)
	}
	return nil
}

// checkJob holds for every daemon job: each payload names the requested
// design and key size, verify proves equivalence, attack recovers a
// working key, and lock passed LEC (a lock payload exists only then) at
// the requested split layer.
func checkJob(spec flow.JobSpec, b []byte) error {
	var (
		bench   string
		keyBits int
	)
	switch spec.Kind {
	case flow.JobVerify:
		var r flow.VerifyJobResult
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if !r.Equivalent {
			return fmt.Errorf("verify: not equivalent")
		}
		bench, keyBits = r.Bench, r.KeyBits
	case flow.JobAttack:
		var r flow.AttackJobResult
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if !r.Success {
			return fmt.Errorf("attack: recovered key fails (converged=%v after %d queries)", r.Converged, r.Iterations)
		}
		bench, keyBits = r.Bench, r.KeyBits
	case flow.JobLock:
		var r flow.LockJobResult
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if r.LockedGates == 0 {
			return fmt.Errorf("lock: empty locked design")
		}
		if r.SplitLayer != spec.SplitLayer {
			return fmt.Errorf("lock: split at M%d, requested M%d", r.SplitLayer, spec.SplitLayer)
		}
		bench, keyBits = r.Bench, r.KeyBits
	default:
		return fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	if bench != spec.Bench || keyBits != spec.KeyBits {
		return fmt.Errorf("%s: payload for %s with %d key bits, requested %s with %d", spec.Kind, bench, keyBits, spec.Bench, spec.KeyBits)
	}
	return nil
}

func expectedPath(root, workload string) string {
	return filepath.Join(root, "perfbench", "expected", workload+".json")
}

func readExpected(root, workload string) (map[string]json.RawMessage, error) {
	b, err := os.ReadFile(expectedPath(root, workload))
	if err != nil {
		return nil, fmt.Errorf("recorded outputs: %w", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(b, &want); err != nil {
		return nil, fmt.Errorf("recorded outputs: %w", err)
	}
	return want, nil
}

func writeExpected(root, workload string, out *runOut) error {
	if len(out.failed) > 0 {
		return fmt.Errorf("not recording a run with failed operations: %v", out.failed)
	}
	m := make(map[string]json.RawMessage, len(out.outputs))
	for k, b := range out.outputs {
		m[k] = b
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(root, workload), append(b, '\n'), 0o644)
}

// checkCounters compares the deterministic counters of a traced run with
// the first traced run of the same code (by source hash), workload, seed
// and run length in this checkout (kept under .bench_build/counters/).
// It returns the counters that differ, or "" when all repeat exactly.
// Changed code starts a fresh ledger, so a change that legitimately
// moves a counter is never taken for nondeterminism.
func checkCounters(root, workload string, seed uint64, seconds int, source string, metrics map[string]float64) string {
	cur := make(map[string]float64, len(deterministicCounters))
	for _, c := range deterministicCounters {
		cur[c] = metrics[c]
	}
	dir := filepath.Join(root, ".bench_build", "counters")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds-%s.json", workload, seed, seconds, source))
	b, err := os.ReadFile(path)
	if err != nil {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			nb, _ := json.MarshalIndent(cur, "", "  ")
			_ = os.WriteFile(path, nb, 0o644) // a missing ledger only skips the next comparison
		}
		return ""
	}
	var first map[string]float64
	if err := json.Unmarshal(b, &first); err != nil {
		return "unreadable counter ledger: " + err.Error()
	}
	var diffs []string
	for _, c := range deterministicCounters {
		if first[c] != cur[c] {
			diffs = append(diffs, fmt.Sprintf("%s %g vs %g", c, cur[c], first[c]))
		}
	}
	return strings.Join(diffs, ", ")
}

// provenance identifies the host and code a result was measured on.
type provenance struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"git_commit"`
	SourceHash string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
}

func (p provenance) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s seed=%d",
		p.CPU, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Commit, p.SourceHash, p.Seed)
}

func hostProvenance(root string, seed uint64) provenance {
	p := provenance{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "none", SourceHash: sourceHash(root), Seed: seed,
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources and module files of the checkout,
// identifying the code even where the checkout is not a git repository.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
