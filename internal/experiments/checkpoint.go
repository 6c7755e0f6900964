package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"

	"memsim/internal/core"
	"memsim/internal/recdir"
	"memsim/internal/vfs"
)

// manifestLayout is the manifest schema: <key>.json holds
// {"version": 1, "entry": ...}; older builds' single file held
// {"version": 1, "entries": {<key>: ...}}.
var manifestLayout = recdir.Layout{Version: 1, Field: "entry", LegacyField: "entries"}

// SpecKey is the checkpoint identity of one run: a 64-bit hash over
// the benchmark, the workload seed, and the full configuration
// (including budgets, which the orchestrator folds in before hashing;
// swpf= repeats SoftwarePrefetch, keeping the keys of older builds).
// Two invocations that would simulate the same thing — the simulator
// is deterministic — share a key, so a resumed batch recognizes
// finished work across processes.
func SpecKey(bench string, seed uint64, cfg core.Config) string {
	b := fmt.Appendf(nil, "%s|seed=%d|swpf=%v|%+v", bench, seed, cfg.SoftwarePrefetch, cfg)
	// Older builds' HardenConfig ended in a fault plan, printed
	// "Inject:none" for every run a batch could record. Printing it
	// still, before the struct's closing brace, keeps their keys, so
	// their manifests resume.
	i := bytes.Index(b, []byte("Harden:{"))
	b = slices.Insert(b, i+bytes.IndexByte(b[i:], '}'), []byte(" Inject:none")...)
	h := sha256.Sum256(b)
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

// Manifest holds completed results keyed by SpecKey; the Runner
// resolves every spec through it, so each distinct spec runs once. On
// disk it is the batch's checkpoint, one <key>.json record written per
// finished spec, so an interruption loses at most the runs in flight.
// It is safe for concurrent use by the worker pool.
type Manifest struct {
	mu      sync.Mutex
	recs    *recdir.Dir // nil for a manifest kept in memory only
	entries map[string]*ManifestEntry

	quarantined string
}

// OpenManifest opens the manifest in the directory path on fsys,
// creating it when missing (resuming a batch that never started is just
// starting it), or with an empty path one kept in memory. A record that
// does not parse is quarantined, so its spec runs again; Quarantined
// reports the move. A single-file manifest of older builds at path is
// imported in place, crash-safely (see recdir.Open).
func OpenManifest(fsys vfs.FS, path string) (*Manifest, error) {
	m := &Manifest{entries: make(map[string]*ManifestEntry)}
	if path == "" {
		return m, nil
	}
	recs, _, err := recdir.Open(fsys, path, path, manifestLayout, func(key string, rec []byte) error {
		e := &ManifestEntry{}
		if err := json.Unmarshal(rec, e); err != nil {
			return err
		}
		m.entries[key] = e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m.recs, m.quarantined = recs, recs.Quarantined()
	return m, nil
}

// Quarantined reports where OpenManifest moved corrupt data,
// comma-separated, or "" when the load was clean.
func (m *Manifest) Quarantined() string { return m.quarantined }

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

// Lookup returns the recorded result for key, if present.
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
// batch captured any — and, for a persisted manifest, writes its
// record. A failed write is returned and also retained for Save, so a
// batch on a full disk still finishes and reports the problem once.
func (m *Manifest) Record(key, bench string, res core.Result, metrics map[string]float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := &ManifestEntry{Bench: bench, Runs: 1, Result: res, Metrics: metrics}
	if old := m.entries[key]; old != nil {
		e.Runs += old.Runs
	}
	m.entries[key] = e
	if m.recs == nil {
		return nil
	}
	return m.recs.Put(key, e)
}

// Fold copies into m every entry of from whose key m does not hold,
// with its simulation count, and persists each copied record like
// Record. Keys m already holds are skipped, so folding the same
// manifest again, say after a crash mid-fold, changes nothing.
func (m *Manifest) Fold(from *Manifest) error {
	from.mu.Lock()
	entries := maps.Clone(from.entries)
	from.mu.Unlock()
	keys := make([]string, 0, len(entries))
	for key := range entries {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, key := range keys {
		if _, ok := m.entries[key]; ok {
			continue
		}
		m.entries[key] = entries[key]
		if m.recs == nil {
			continue
		}
		if err := m.recs.Put(key, entries[key]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Save rewrites every record whose write failed, reporting the first
// error from any earlier write as well. Call it before exiting — in
// particular from the SIGINT path, so an interrupted batch leaves a
// complete record.
func (m *Manifest) Save() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recs == nil {
		return nil
	}
	return m.recs.Flush()
}
