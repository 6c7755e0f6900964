package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/vfs"
)

// openOS opens the manifest at path on the real filesystem.
func openOS(t *testing.T, path string) *Manifest {
	t.Helper()
	m, err := OpenManifest(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestRepeatedQuarantineKeepsEvidence pins the monotonic
// quarantine naming: a second and third corrupt record move aside as
// .corrupt.1 and .corrupt.2 instead of overwriting the first capture,
// so every generation stays inspectable.
func TestManifestRepeatedQuarantineKeepsEvidence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "batch")
	path := filepath.Join(dir, "k1.json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	want := []string{path + ".corrupt", path + ".corrupt.1", path + ".corrupt.2"}
	for gen, dest := range want {
		body := []byte("{generation " + string(rune('0'+gen)))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenManifest(vfs.OS, dir)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if m.Quarantined() != dest {
			t.Fatalf("generation %d quarantined as %q, want %q", gen, m.Quarantined(), dest)
		}
	}
	for gen, dest := range want {
		data, err := os.ReadFile(dest)
		if err != nil {
			t.Fatalf("generation %d evidence lost: %v", gen, err)
		}
		if got := string(data[len(data)-1]); got != string(rune('0'+gen)) {
			t.Fatalf("%s holds generation %q, want %d", dest, got, gen)
		}
	}
}

// TestManifestOnMemFS exercises the vfs seam end to end: record,
// reload, and reuse a manifest on the in-memory filesystem the chaos
// explorer replays on. Each recorded spec is one record file.
func TestManifestOnMemFS(t *testing.T) {
	mem := vfs.NewMem()
	m, err := OpenManifest(mem, "batch")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k1", "k2"} {
		if err := m.Record(key, "swim", core.Result{IPC: 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	// One record per spec and no temp file left behind.
	if got, want := strings.Join(mem.Files(), ","), "batch/k1.json,batch/k2.json"; got != want {
		t.Fatalf("files = %s, want %s", got, want)
	}
	re, err := OpenManifest(mem, "batch")
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 || re.TotalRuns() != 2 {
		t.Fatalf("reloaded manifest: %d entries, %d runs", re.Len(), re.TotalRuns())
	}
	if res, ok := re.Lookup("k1"); !ok || res.IPC != 2 {
		t.Fatalf("lookup = %+v, %v", res, ok)
	}
}

// TestManifestFold: folding copies the keys the target lacks with their
// simulation counts and persists them, leaves the keys it holds alone,
// and a second fold writes nothing.
func TestManifestFold(t *testing.T) {
	mem := vfs.NewMem()
	from, err := OpenManifest(mem, "old")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k1", "k2", "k2"} {
		if err := from.Record(key, "swim", core.Result{IPC: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	f := vfs.NewFault(mem)
	m, err := OpenManifest(f, "new")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record("k1", "swim", core.Result{IPC: 2}, nil); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		ops := f.Ops()
		if err := m.Fold(from); err != nil {
			t.Fatal(err)
		}
		if pass == 1 && f.Ops() != ops {
			t.Fatalf("a second fold crossed %d write boundaries", f.Ops()-ops)
		}
	}
	re, err := OpenManifest(mem, "new")
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 || re.TotalRuns() != 3 {
		t.Fatalf("folded manifest on disk: %d entries, %d runs, want 2 and 3", re.Len(), re.TotalRuns())
	}
	if res, _ := re.Lookup("k1"); res.IPC != 2 {
		t.Fatalf("fold replaced a key the target held: IPC %v", res.IPC)
	}
}

// legacyFixture is a single-file manifest written by the last build
// that kept the whole manifest in one file: swim, mcf and gcc on the
// base system at legacyOptions' budgets.
const legacyFixture = "testdata/legacy_manifest.json"

// legacyOptions is the batch legacyFixture checkpointed.
func legacyOptions(m *Manifest) Options {
	return Options{Instrs: 2_000, Warmup: 500, Benchmarks: []string{"swim", "mcf", "gcc"}, Parallelism: 1, Checkpoint: m}
}

// checkLegacyResume resumes legacyFixture's batch from m: nothing may
// be simulated, and every result must be the fixture's.
func checkLegacyResume(t *testing.T, m *Manifest) {
	t.Helper()
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Entries map[string]*ManifestEntry `json:"entries"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if q := m.Quarantined(); q != "" {
		t.Fatalf("import quarantined %s", q)
	}
	if m.Len() != len(want.Entries) || m.TotalRuns() != len(want.Entries) {
		t.Fatalf("manifest holds %d entries and %d runs, want %d of each", m.Len(), m.TotalRuns(), len(want.Entries))
	}
	r, err := NewRunner(legacyOptions(m))
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunBenches(core.Base())
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Counts(); c.Completed != 0 || c.Reused != 3 {
		t.Fatalf("resume counts = %+v, want 0 simulated and 3 reused", c)
	}
	for i, bench := range r.Benchmarks() {
		key := r.specKey(spec{bench: bench, cfg: core.Base()})
		if e := want.Entries[key]; e == nil || !reflect.DeepEqual(results[0][i], e.Result) {
			t.Fatalf("%s: resumed result differs from the fixture's", bench)
		}
	}
}

// TestManifestImportsLegacyFile: a single-file manifest of an older
// build converts in place into one record per spec, and resuming from
// it simulates nothing.
func TestManifestImportsLegacyFile(t *testing.T) {
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	checkLegacyResume(t, openOS(t, path))
	names, err := vfs.OS.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("record directory holds %v, want 3 records", names)
	}
	if _, err := os.Stat(path + ".import"); !os.IsNotExist(err) {
		t.Fatalf("import source left behind: %v", err)
	}
	checkLegacyResume(t, openOS(t, path))
}

// TestManifestLegacyImportSurvivesCrash kills the import at each of
// its boundaries with each crash class: the next open must finish it,
// losing nothing and re-simulating nothing.
func TestManifestLegacyImportSurvivesCrash(t *testing.T) {
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []vfs.FaultKind{vfs.FaultKill, vfs.FaultTorn, vfs.FaultCorrupt} {
		for op := 0; ; op++ {
			mem := vfs.NewMem()
			if err := mem.WriteFile("runs.json", data, 0o644); err != nil {
				t.Fatal(err)
			}
			f := vfs.NewFault(mem)
			f.Arm(op, kind)
			_, err := OpenManifest(f, "runs.json")
			if !f.Tripped() {
				if err != nil {
					t.Fatal(err)
				}
				if op < 9 { // rename, mkdir, 3 × (write + rename), remove
					t.Fatalf("import crossed only %d boundaries", op)
				}
				break
			}
			if !errors.Is(err, vfs.ErrCrashed) {
				t.Fatalf("%v at boundary %d: open error = %v", kind, op, err)
			}
			m, err := OpenManifest(mem, "runs.json")
			if err != nil {
				t.Fatalf("recovery after %v at boundary %d: %v", kind, op, err)
			}
			checkLegacyResume(t, m)
		}
	}
}

// TestRunAllSimulatesEachKeyOnce: a batch that lists one spec several
// times simulates it once and hands every copy the same result.
func TestRunAllSimulatesEachKeyOnce(t *testing.T) {
	r, err := NewRunner(Options{Instrs: 2_000, Warmup: 500, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := []spec{{"swim", core.Base()}, {"mcf", core.Base()}, {"swim", core.Base()}, {"swim", core.Base()}}
	results, err := r.runAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Counts(); c.Completed != 2 || c.Reused != 2 {
		t.Fatalf("counts = %+v, want 2 simulated and 2 reused", c)
	}
	if results[0] != results[2] || results[0] != results[3] {
		t.Fatal("repeated spec got different results")
	}
	// A later batch of the same runner reuses them too.
	if _, err := r.RunBenches(core.Base()); err != nil {
		t.Fatal(err)
	}
	if c := r.Counts(); c.Completed != 2+24 {
		t.Fatalf("second batch simulated %d specs, want the 24 new ones", c.Completed-2)
	}
}

// TestSpecKeyPinned pins SpecKey for one fixed spec. The key hashes the
// printed form of the whole core.Config, so a change to any Config field
// or its formatting re-keys the memsimd service manifest and every
// `experiments -checkpoint` file: resumes then re-simulate everything.
// If this test fails on purpose, record the key change in CHANGES.md.
func TestSpecKeyPinned(t *testing.T) {
	cfg := core.Base()
	cfg.MaxInstrs = 30_000
	cfg.WarmupInstrs = 60_000
	cfg.SoftwarePrefetch = true
	if got, want := SpecKey("mcf", 7, cfg), "5ec35921443e5874"; got != want {
		t.Fatalf("SpecKey = %s, want %s", got, want)
	}
	// memsimd arms the watchdog on every job, so its manifest's keys
	// print a non-zero Harden.
	cfg.Harden = core.HardenConfig{WatchdogCycles: 5_000_000, Paranoid: true}
	if got, want := SpecKey("mcf", 7, cfg), "977e881484ce8317"; got != want {
		t.Fatalf("hardened SpecKey = %s, want %s", got, want)
	}
}
