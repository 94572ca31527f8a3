package runmanifest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultpoint"
)

type cell struct {
	CCR float64 `json:"ccr"`
	HD  float64 `json:"hd"`
}

func testFP() Fingerprint {
	return Fingerprint{
		Experiment:  "itc",
		Scale:       0.25,
		KeyBits:     32,
		Patterns:    1000,
		Seed:        1,
		SplitLayers: []int{4, 6},
		Benchmarks:  []string{"b14"},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	m := New(path, testFP())
	want := cell{CCR: 93.125, HD: 12.0625}
	if err := m.Put("b14/M4", want); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Fingerprint().CompatibleWith(testFP()); err != nil {
		t.Fatalf("fingerprint changed across round trip: %v", err)
	}
	var got cell
	ok, err := m2.Get("b14/M4", &got)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v; want present", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cell round trip: got %+v want %+v", got, want)
	}
	if ok, _ := m2.Get("b14/M6", &got); ok {
		t.Fatal("Get reported a cell that was never put")
	}
}

func TestFlushReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	m := New(path, testFP())
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("b14/M4", cell{CCR: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after Flush: %v", err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 1 {
		t.Fatalf("reloaded manifest has %d cells, want 1", m2.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()

	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("Load of missing file succeeded")
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	os.WriteFile(corrupt, []byte(`{"version":1,"cells":{`), 0o644)
	if _, err := Load(corrupt); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("Load of corrupt file: %v, want corrupt error", err)
	}

	oldver := filepath.Join(dir, "oldver.json")
	os.WriteFile(oldver, []byte(`{"version":99,"cells":{}}`), 0o644)
	if _, err := Load(oldver); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("Load of version-mismatched file: %v, want version error", err)
	}
}

func TestCompatibleWith(t *testing.T) {
	base := testFP()

	subset := testFP()
	subset.Benchmarks = []string{"b15", "b17"}
	if err := base.CompatibleWith(subset); err != nil {
		t.Errorf("benchmark-only difference rejected: %v", err)
	}

	for name, mut := range map[string]func(*Fingerprint){
		"experiment": func(f *Fingerprint) { f.Experiment = "iscas" },
		"scale":      func(f *Fingerprint) { f.Scale = 1.0 },
		"keybits":    func(f *Fingerprint) { f.KeyBits = 64 },
		"patterns":   func(f *Fingerprint) { f.Patterns = 2000 },
		"seed":       func(f *Fingerprint) { f.Seed = 7 },
		"layers":     func(f *Fingerprint) { f.SplitLayers = []int{4} },
	} {
		fp := testFP()
		mut(&fp)
		if err := base.CompatibleWith(fp); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

// TestNotesRoundTrip: notes land in the flushed file's "notes" object,
// where CI reads them with jq; a Load→Flush resume keeps them; and —
// critically — a manifest that never writes a note serializes without
// a notes section, keeping note-free runs byte-identical to manifests
// written before notes existed.
func TestNotesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	m := New(path, testFP())
	m.Put("b14/M4", cell{CCR: 1})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(clean), "notes") {
		t.Fatalf("note-free manifest serialized a notes section:\n%s", clean)
	}

	fileNotes := func() map[string]string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			Notes map[string]string `json:"notes"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		return f.Notes
	}
	m.PutNote("b14/M6", "quarantined after 3 worker deaths")
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"b14/M6": "quarantined after 3 worker deaths"}
	if got := fileNotes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flushed notes = %v, want %v", got, want)
	}

	// A resume loads the manifest, adds a cell and flushes: the note
	// must survive.
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m2.Put("b15/M4", cell{CCR: 2})
	if err := m2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fileNotes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("notes after Load→Flush = %v, want %v", got, want)
	}
}

// TestTruncatedFlushDetected proves the crash model: a flush that dies
// before the rename leaves the previous manifest intact, and a manifest
// damaged on disk is rejected by Load rather than silently resumed.
func TestTruncatedFlushDetected(t *testing.T) {
	defer faultpoint.Reset()
	path := filepath.Join(t.TempDir(), "run.json")
	m := New(path, testFP())
	m.Put("b14/M4", cell{CCR: 1})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	// A crash between temp-write and rename must leave the old file.
	m.Put("b14/M6", cell{CCR: 2})
	faultpoint.Set("runmanifest.flush.pre-rename", func() {
		panic("simulated crash")
	})
	func() {
		defer func() { recover() }()
		m.Flush()
		t.Error("flush did not hit the fault point")
	}()
	faultpoint.Reset()
	m2, err := Load(path)
	if err != nil {
		t.Fatalf("old manifest unreadable after crashed flush: %v", err)
	}
	if m2.Len() != 1 {
		t.Fatalf("crashed flush changed the on-disk manifest: %d cells", m2.Len())
	}

	// A manifest truncated on disk (e.g. torn copy between machines)
	// must fail Load, not resume from garbage.
	faultpoint.Set("runmanifest.flush.pre-rename", func() {
		os.Truncate(path+".tmp", 10)
	})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load of truncated manifest succeeded")
	}
}

// TestStaleTempSweptOnOpen: a process killed between the temp write and
// the rename orphans path+".tmp"; reopening the manifest (Load or New)
// must remove the orphan — a resumed run that finds every cell already
// complete never flushes again, so nothing else would ever clean it up.
func TestStaleTempSweptOnOpen(t *testing.T) {
	defer faultpoint.Reset()
	path := filepath.Join(t.TempDir(), "run.json")
	m := New(path, testFP())
	m.Put("b14/M4", cell{CCR: 1})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill the writer between write-temp and rename. The panic is a
	// deterministic stand-in for SIGKILL: the temp file is fully written
	// and synced, the rename never happens.
	m.Put("b14/M6", cell{CCR: 2})
	faultpoint.Set("runmanifest.flush.pre-rename", func() {
		panic("simulated kill")
	})
	func() {
		defer func() { recover() }()
		m.Flush()
		t.Error("flush did not hit the fault point")
	}()
	faultpoint.Reset()
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("crashed flush left no orphan temp: %v", err)
	}

	// The restarted run reopens the manifest: the previous snapshot is
	// intact and the orphan is swept.
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 1 {
		t.Fatalf("resumed manifest has %d cells, want 1 (pre-crash snapshot)", m2.Len())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temp not swept on open: stat err = %v", err)
	}

	// New (fresh run over the same path) sweeps too.
	if err := m2.Flush(); err != nil { // recreate then orphan again
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	New(path, testFP())
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("New did not sweep stale temp: stat err = %v", err)
	}
}
