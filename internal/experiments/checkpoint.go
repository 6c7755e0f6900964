package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"memsim/internal/core"
	"memsim/internal/vfs"
)

// manifestVersion guards the on-disk schema; a manifest written by an
// incompatible layout is rejected rather than silently misread.
const manifestVersion = 1

// SpecKey is the checkpoint identity of one run: a 64-bit hash over
// the benchmark, the workload seed, the software-prefetch flag, and
// the full configuration (including budgets, which the orchestrator
// folds in before hashing). Two invocations that would simulate the
// same thing — the simulator is deterministic — share a key, so a
// resumed batch recognizes finished work across processes.
func SpecKey(bench string, seed uint64, swpf bool, cfg core.Config) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%s|seed=%d|swpf=%v|%+v", bench, seed, swpf, cfg))
	return hex.EncodeToString(h[:8])
}

// ManifestEntry records one completed run. Manifests from older builds
// may also hold cluster-run entries (a "cluster" field, keys prefixed
// "c"): the field is dropped on load and such keys never match a
// SpecKey, so those entries are carried along but never reused.
type ManifestEntry struct {
	// Bench names the workload, for human inspection of the manifest.
	Bench string `json:"bench"`
	// Runs counts how many times this spec was actually simulated (as
	// opposed to reused); a correct resume never increments it.
	Runs int `json:"runs"`
	// Result is the completed measurement.
	Result core.Result `json:"result"`
	// Metrics holds the run's warmup-adjusted observability series
	// (see core.System.ObsMetricsDelta) when the batch armed the
	// metrics registry; nil otherwise.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Manifest is the on-disk checkpoint of a batch: completed results
// keyed by SpecKey, flushed to a JSON file after every recorded run so
// an interruption at any point loses at most the runs in flight. It is
// safe for concurrent use by the worker pool.
type Manifest struct {
	mu          sync.Mutex
	fs          vfs.FS
	path        string
	entries     map[string]*ManifestEntry
	saveErr     error  // first flush failure, surfaced by Save
	quarantined string // where a corrupt predecessor was moved, "" if none
}

// manifestFile is the serialized layout.
type manifestFile struct {
	Version int                       `json:"version"`
	Entries map[string]*ManifestEntry `json:"entries"`
}

// NewManifest returns an empty manifest that will persist to path on
// the real filesystem.
func NewManifest(path string) *Manifest { return NewManifestFS(path, vfs.OS) }

// NewManifestFS returns an empty manifest that will persist to path
// on fsys.
func NewManifestFS(path string, fsys vfs.FS) *Manifest {
	return &Manifest{fs: fsys, path: path, entries: make(map[string]*ManifestEntry)}
}

// LoadManifest reads the manifest at path on the real filesystem. See
// LoadManifestFS.
func LoadManifest(path string) (*Manifest, error) { return LoadManifestFS(path, vfs.OS) }

// LoadManifestFS reads the manifest at path on fsys for resumption. A
// missing file yields an empty manifest (resuming a batch that never
// started is just starting it). A file that does not parse as JSON —
// the signature of a partial write during a crash, since a healthy
// flush is atomic — is quarantined (path+".corrupt", then .corrupt.1,
// .corrupt.2, ... so repeated corruptions keep their evidence) and a
// fresh manifest takes its place, so one damaged checkpoint costs
// re-running its specs rather than failing the whole resume;
// Quarantined reports the move so callers can warn. An unreadable
// file or a version mismatch (a deliberate schema change, not crash
// damage) stays a hard error, since silently ignoring it would re-run
// everything.
func LoadManifestFS(path string, fsys vfs.FS) (*Manifest, error) {
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return NewManifestFS(path, fsys), nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var f manifestFile
	if err := json.Unmarshal(data, &f); err != nil {
		q, qerr := vfs.Quarantine(fsys, path)
		if qerr != nil {
			return nil, fmt.Errorf("checkpoint %s: unparseable (%v) and quarantine failed: %w", path, err, qerr)
		}
		m := NewManifestFS(path, fsys)
		m.quarantined = q
		return m, nil
	}
	if f.Version != manifestVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d", path, f.Version, manifestVersion)
	}
	m := NewManifestFS(path, fsys)
	if f.Entries != nil {
		m.entries = f.Entries
	}
	return m, nil
}

// Quarantined reports where LoadManifest moved a corrupt predecessor
// of this manifest, or "" when the load was clean.
func (m *Manifest) Quarantined() string { return m.quarantined }

// Path reports where the manifest persists.
func (m *Manifest) Path() string { return m.path }

// Len reports how many completed specs the manifest holds.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// TotalRuns sums the per-entry simulation counts — the number the
// resume acceptance check verifies: rerunning a finished batch must
// not increase it.
func (m *Manifest) TotalRuns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.entries {
		n += e.Runs
	}
	return n
}

// Lookup returns the checkpointed result for key, if present.
func (m *Manifest) Lookup(key string) (core.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return core.Result{}, false
	}
	return e.Result, true
}

// Record stores a completed run — with its metric deltas, when the
// batch captured any — and flushes the manifest to disk. A flush
// failure is returned and also retained for Save, so a batch on a
// full disk still finishes and reports the problem once.
func (m *Manifest) Record(key, bench string, res core.Result, metrics map[string]float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[key]
	if e == nil {
		e = &ManifestEntry{Bench: bench}
		m.entries[key] = e
	}
	e.Result = res
	e.Metrics = metrics
	e.Runs++
	return m.flushLocked()
}

// Save flushes the manifest, reporting the first error from any
// earlier flush as well. Call it before exiting — in particular from
// the SIGINT path, so an interrupted batch leaves a complete record.
func (m *Manifest) Save() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.flushLocked(); err != nil {
		return err
	}
	return m.saveErr
}

// flushLocked writes the manifest atomically (temp file + rename), so
// a kill mid-write never leaves a truncated checkpoint.
func (m *Manifest) flushLocked() error {
	data, err := json.MarshalIndent(manifestFile{Version: manifestVersion, Entries: m.entries}, "", "  ")
	if err == nil {
		err = vfs.WriteFileAtomic(m.fs, m.path, data, 0o644)
	}
	if err != nil {
		err = fmt.Errorf("checkpoint %s: %w", filepath.Base(m.path), err)
		if m.saveErr == nil {
			m.saveErr = err
		}
	}
	return err
}
