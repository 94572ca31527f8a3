// Package runmanifest persists the progress of a long table run so that
// a killed or interrupted sweep resumes where it stopped instead of
// restarting. A manifest is a JSON file holding a configuration
// fingerprint plus one payload per completed cell (a benchmark×layer
// job of the experiment harness); the flow appends a cell after each
// job and flushes with an atomic write-temp-then-rename, so the file on
// disk is always a consistent snapshot — a crash between flushes loses
// at most the cells completed since the last one, never the file.
package runmanifest

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/faultpoint"
)

// Version is the manifest file format version; Load rejects files
// written by a different one.
const Version = 1

var fpPreRename = faultpoint.Describe("runmanifest.flush.pre-rename",
	"runmanifest: between writing the temp file and the atomic rename; corrupt or kill here to test crash-safe flushes")

// Fingerprint identifies the experiment configuration a manifest's
// cells were computed under. All fields except Benchmarks must match
// exactly for cells to be reusable.
type Fingerprint struct {
	// Experiment names the harness ("itc" for the Table I/II sweep).
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	KeyBits    int     `json:"keybits"`
	Patterns   int     `json:"patterns"`
	Seed       uint64  `json:"seed"`
	// SplitLayers is the layer axis of the sweep (sorted).
	SplitLayers []int `json:"split_layers,omitempty"`
	// Benchmarks is the benchmark subset this manifest's run covers
	// (sorted). It does not gate cell reuse: a cell's key names its
	// benchmark, so a resume may cover a different subset and reuses
	// exactly the cells it shares.
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// Normalize sorts the slice-valued axes so fingerprints compare and
// serialize canonically.
func (f *Fingerprint) Normalize() {
	sort.Ints(f.SplitLayers)
	sort.Strings(f.Benchmarks)
}

// CompatibleWith reports whether cells computed under g are valid under
// f: every field except Benchmarks must match. A non-nil error names
// the first mismatching field with both values.
func (f Fingerprint) CompatibleWith(g Fingerprint) error {
	switch {
	case f.Experiment != g.Experiment:
		return fmt.Errorf("experiment %q vs %q", f.Experiment, g.Experiment)
	case f.Scale != g.Scale:
		return fmt.Errorf("scale %v vs %v", f.Scale, g.Scale)
	case f.KeyBits != g.KeyBits:
		return fmt.Errorf("keybits %d vs %d", f.KeyBits, g.KeyBits)
	case f.Patterns != g.Patterns:
		return fmt.Errorf("patterns %d vs %d", f.Patterns, g.Patterns)
	case f.Seed != g.Seed:
		return fmt.Errorf("seed %d vs %d", f.Seed, g.Seed)
	}
	a := append([]int(nil), f.SplitLayers...)
	b := append([]int(nil), g.SplitLayers...)
	sort.Ints(a)
	sort.Ints(b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Errorf("split layers %v vs %v", a, b)
	}
	return nil
}

// Manifest is the completed-cell record of one experiment run. It is
// safe for concurrent use.
type Manifest struct {
	mu    sync.Mutex
	fp    Fingerprint
	cells map[string]json.RawMessage
	notes map[string]string
	path  string // "" for in-memory manifests
}

// manifestFile is the on-disk JSON shape. Notes is omitted when empty
// so runs that never write one produce byte-identical files with or
// without the notes machinery linked in.
type manifestFile struct {
	Version     int                        `json:"version"`
	Fingerprint Fingerprint                `json:"fingerprint"`
	Cells       map[string]json.RawMessage `json:"cells"`
	Notes       map[string]string          `json:"notes,omitempty"`
}

// New returns an empty manifest for the given configuration, persisted
// to path by Flush (path "" keeps it in memory only). Opening a
// manifest sweeps the stale temp file a crash may have orphaned; a
// manifest file has a single writer at a time, so the temp is never
// another process's in-flight flush.
func New(path string, fp Fingerprint) *Manifest {
	fp.Normalize()
	sweepStaleTemp(path)
	return &Manifest{
		fp:    fp,
		cells: make(map[string]json.RawMessage),
		path:  path,
	}
}

// sweepStaleTemp removes the orphaned temp file of a crashed flush.
// The write-temp-then-rename protocol means path+".tmp" is never the
// source of truth — a crash between the write and the rename leaves the
// previous complete manifest at path and an orphan at path+".tmp" that
// a resumed run would otherwise never clean up (a resumed run that
// finds every cell complete never flushes).
func sweepStaleTemp(path string) {
	if path == "" {
		return
	}
	os.Remove(path + ".tmp")
}

// Load reads a manifest file. A missing, truncated, corrupt or
// version-mismatched file is an error — resuming from a manifest that
// cannot be trusted must fail loudly, not silently restart the sweep.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runmanifest: %w", err)
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("runmanifest: %s is corrupt (delete it to start fresh): %w", path, err)
	}
	if mf.Version != Version {
		return nil, fmt.Errorf("runmanifest: %s has format version %d, want %d", path, mf.Version, Version)
	}
	m := New(path, mf.Fingerprint)
	if mf.Cells != nil {
		m.cells = mf.Cells
	}
	if mf.Notes != nil {
		m.notes = mf.Notes
	}
	return m, nil
}

// Fingerprint returns the manifest's configuration fingerprint.
func (m *Manifest) Fingerprint() Fingerprint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fp
}

// Path returns the file this manifest flushes to ("" = in-memory).
func (m *Manifest) Path() string { return m.path }

// Len returns the number of completed cells.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}

// Put records the payload of a completed cell (it does not flush).
func (m *Manifest) Put(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runmanifest: cell %s: %w", key, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells[key] = data
	return nil
}

// PutNote attaches an advisory annotation to a key (it does not flush).
// Notes live outside the cell namespace: the table harness records a
// quarantined cell's fate here — the cell itself stays absent, so a
// later resume retries it, while the note survives as the run's record
// of what happened. Notes never affect cell reuse or byte-identity of
// runs that write none (the section is omitted when empty).
func (m *Manifest) PutNote(key, note string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.notes == nil {
		m.notes = make(map[string]string)
	}
	m.notes[key] = note
}

// Get unmarshals the payload of cell key into v, reporting whether the
// cell is present. A present-but-unparsable payload returns an error;
// callers resuming a run should treat that cell as not completed.
func (m *Manifest) Get(key string, v any) (bool, error) {
	m.mu.Lock()
	data, ok := m.cells[key]
	m.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("runmanifest: cell %s: %w", key, err)
	}
	return true, nil
}

// Flush atomically persists the manifest with WriteFile. Flush on an
// in-memory manifest is a no-op.
func (m *Manifest) Flush() error {
	if m.path == "" {
		return nil
	}
	m.mu.Lock()
	data, err := json.MarshalIndent(manifestFile{
		Version:     Version,
		Fingerprint: m.fp,
		Cells:       m.cells,
		Notes:       m.notes,
	}, "", "  ")
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("runmanifest: %w", err)
	}
	return WriteFile(m.path, data)
}

// WriteFile atomically replaces path with data: the bytes are written
// to path+".tmp", synced, and renamed over path, so a crash at any
// moment leaves either the previous complete file or the new complete
// file — never a torn one. A crash before the rename orphans the temp
// file; whoever reopens path next should remove it.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("runmanifest: %w", err)
	}
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runmanifest: writing %s: %w", tmp, err)
	}
	// Fault-injection seam: tests truncate or corrupt the temp file here
	// to prove that Load detects a damaged manifest instead of resuming
	// from garbage.
	faultpoint.Hit(fpPreRename)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runmanifest: %w", err)
	}
	return nil
}
