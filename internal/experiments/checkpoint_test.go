package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"memsim/internal/core"
	"memsim/internal/vfs"
)

// TestManifestRepeatedQuarantineKeepsEvidence pins the monotonic
// quarantine naming: a second and third corrupt checkpoint move aside
// as .corrupt.1 and .corrupt.2 instead of overwriting the first
// capture, so every generation stays inspectable.
func TestManifestRepeatedQuarantineKeepsEvidence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.json")
	want := []string{path + ".corrupt", path + ".corrupt.1", path + ".corrupt.2"}
	for gen, dest := range want {
		body := []byte("{generation " + string(rune('0'+gen)))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
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
// explorer replays on.
func TestManifestOnMemFS(t *testing.T) {
	mem := vfs.NewMem()
	m := NewManifestFS("batch.json", mem)
	if err := m.Record("k1", "swim", core.Result{IPC: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := LoadManifestFS("batch.json", mem)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 || re.TotalRuns() != 1 {
		t.Fatalf("reloaded manifest: %d entries, %d runs", re.Len(), re.TotalRuns())
	}
	if res, ok := re.Lookup("k1"); !ok || res.IPC != 2 {
		t.Fatalf("lookup = %+v, %v", res, ok)
	}
	// The flush discipline must leave no temp file behind on the seam.
	if _, err := mem.Stat("batch.json.tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left on the seam: %v", err)
	}
}

// TestSpecKeyPinned pins SpecKey for one fixed spec. The key hashes the
// printed form of the whole core.Config, so a change to any Config field
// or its formatting re-keys every memsimd job manifest and every
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
}
