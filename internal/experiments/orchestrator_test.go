package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/harden"
	"memsim/internal/harden/inject"
)

// orchOptions is the small-budget batch the orchestrator tests share:
// three benchmarks with the forward-progress watchdog armed, so an
// injected fault produces the retryable abort the retry policy targets.
func orchOptions() Options {
	return Options{
		Instrs:     30_000,
		Warmup:     60_000,
		Benchmarks: []string{"swim", "mcf", "gzip"},
		Harden:     core.HardenConfig{WatchdogCycles: 50_000},
	}
}

// failMCF arms sustained completion-dropping on mcf only, wedging that
// spec until the watchdog aborts it while the rest of the batch runs
// clean — a deterministic mid-batch failure.
func failMCF(sp spec) inject.Plan {
	if sp.bench == "mcf" {
		return inject.Plan{Class: inject.DropCompletion}
	}
	return inject.Plan{}
}

func TestRunAllParallelismDeterminism(t *testing.T) {
	run := func(parallelism int) []core.Result {
		opt := orchOptions()
		opt.Parallelism = parallelism
		r, err := NewRunner(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunBenches(core.Base(), false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, pooled := run(1), run(4)
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("results differ across Parallelism 1 vs 4:\n%+v\nvs\n%+v", serial, pooled)
	}
}

func TestOrchestratorRetryAndDegradedBatch(t *testing.T) {
	opt := orchOptions()
	opt.Retries = 2
	opt.KeepGoing = true
	opt.injectFor = failMCF
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunBenches(core.Base(), false)
	if err != nil {
		t.Fatalf("degraded batch returned error: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	// The injected spec's cell is the NaN marker; the survivors are real.
	if !math.IsNaN(res[1].IPC) {
		t.Errorf("mcf IPC = %v, want NaN failed-cell marker", res[1].IPC)
	}
	if res[0].IPC <= 0 || res[2].IPC <= 0 {
		t.Errorf("surviving cells lost: swim %v, gzip %v", res[0].IPC, res[2].IPC)
	}
	c := r.Counts()
	if c.Completed != 2 || c.Retried != 2 || c.Failed != 1 {
		t.Errorf("counts = %+v, want Completed 2, Retried 2, Failed 1", c)
	}
	fails := r.DrainFailures()
	if len(fails) != 1 {
		t.Fatalf("got %d failures, want 1", len(fails))
	}
	f := fails[0]
	if f.Bench != "mcf" || f.Attempts != 3 {
		t.Errorf("failure = %+v, want mcf after 3 attempts", f)
	}
	var wd *harden.WatchdogError
	if !errors.As(f.Err, &wd) {
		t.Errorf("failure cause %v is not a watchdog abort", f.Err)
	}
	if got := r.DrainFailures(); len(got) != 0 {
		t.Errorf("failures not drained: %+v", got)
	}
}

func TestOrchestratorFailFastAggregates(t *testing.T) {
	opt := orchOptions()
	opt.injectFor = failMCF
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunBenches(core.Base(), false)
	if err == nil {
		t.Fatal("batch with a failing spec succeeded without KeepGoing")
	}
	if !strings.Contains(err.Error(), "mcf") {
		t.Errorf("error does not name the failing spec: %v", err)
	}
	var wd *harden.WatchdogError
	if !errors.As(err, &wd) {
		t.Errorf("aggregate error %v does not wrap the watchdog abort", err)
	}
}

func TestDegradedArtifactRendering(t *testing.T) {
	opt := orchOptions()
	opt.KeepGoing = true
	opt.injectFor = failMCF
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ByID("util")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(r, &buf); err != nil {
		t.Fatalf("degraded artifact did not render: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "DEGRADED") {
		t.Error("rendered output missing DEGRADED section")
	}
	if !strings.Contains(out, "FAILED(mcf") {
		t.Error("rendered output missing FAILED(mcf ...) entry")
	}
}

func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")

	// First batch: mcf is lost to injection, the two survivors land in
	// the checkpoint.
	opt := orchOptions()
	opt.KeepGoing = true
	opt.injectFor = failMCF
	opt.Checkpoint = NewManifest(path)
	r1, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r1.RunBenches(core.Base(), false)
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.Checkpoint.Len(); n != 2 {
		t.Fatalf("checkpoint holds %d specs after degraded batch, want 2", n)
	}
	if n := opt.Checkpoint.TotalRuns(); n != 2 {
		t.Fatalf("checkpoint records %d runs, want 2", n)
	}

	// Resumed batch: same budgets and hardening (the spec keys hash the
	// full config), injection disarmed. The survivors must be reused
	// verbatim and only mcf simulated.
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	opt2 := orchOptions()
	opt2.Checkpoint = m
	r2, err := NewRunner(opt2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r2.RunBenches(core.Base(), false)
	if err != nil {
		t.Fatal(err)
	}
	c := r2.Counts()
	if c.Reused != 2 || c.Completed != 1 {
		t.Errorf("resume counts = %+v, want Reused 2, Completed 1", c)
	}
	// The acceptance check: resuming must not re-simulate finished
	// specs, so each reused entry's run count stays at 1.
	if n := m.TotalRuns(); n != 3 {
		t.Errorf("checkpoint records %d runs after resume, want 3", n)
	}
	if second[0] != first[0] || second[2] != first[2] {
		t.Error("reused results differ from the originals")
	}
	if second[1].IPC <= 0 {
		t.Errorf("resumed mcf run lost: IPC = %v", second[1].IPC)
	}
}

func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := orchOptions()
	opt.Context = ctx
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBenches(core.Base(), false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestManifestLoadErrors(t *testing.T) {
	dir := t.TempDir()

	// Missing file: resuming a batch that never started is starting it.
	m, err := LoadManifest(filepath.Join(dir, "absent.json"))
	if err != nil {
		t.Fatalf("missing manifest rejected: %v", err)
	}
	if m.Len() != 0 {
		t.Errorf("missing manifest not empty: %d entries", m.Len())
	}

	// Malformed JSON — the signature of a crash mid-write — is
	// quarantined and a fresh manifest starts, so one damaged
	// checkpoint costs re-running its specs rather than the resume.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = LoadManifest(bad)
	if err != nil {
		t.Fatalf("corrupt manifest must quarantine, not fail: %v", err)
	}
	if m.Quarantined() != bad+".corrupt" {
		t.Errorf("quarantined = %q", m.Quarantined())
	}
	if m.Len() != 0 {
		t.Errorf("fresh manifest not empty: %d entries", m.Len())
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Errorf("corrupt file not preserved for inspection: %v", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("corrupt file still in place: %v", err)
	}
	// The replacement manifest must be fully usable at the same path.
	if err := m.Record("k1", "gcc", core.Result{IPC: 1}, nil); err != nil {
		t.Fatalf("fresh manifest not writable: %v", err)
	}
	reloaded, err := LoadManifest(bad)
	if err != nil || reloaded.Len() != 1 {
		t.Fatalf("reload after quarantine: %v, %d entries", err, reloaded.Len())
	}

	// A version mismatch is a deliberate schema change, not crash
	// damage: it stays a hard error.
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"version": 99, "entries": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(wrong); err == nil {
		t.Error("version-mismatched manifest accepted")
	}
}

// TestCheckpointMetrics pins the `experiments -metrics` path: with the
// metrics registry armed, each checkpointed run stores its
// warmup-adjusted metric deltas in its manifest entry and they survive
// a reload; a default batch stores none.
func TestCheckpointMetrics(t *testing.T) {
	for _, armed := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "runs.json")
		opt := Options{Instrs: 5_000, Warmup: 5_000, Benchmarks: []string{"swim"}, Checkpoint: NewManifest(path)}
		opt.Obs.Metrics = armed
		r, err := NewRunner(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunBenches(core.Base(), false); err != nil {
			t.Fatal(err)
		}
		if err := opt.Checkpoint.Save(); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 1 {
			t.Fatalf("metrics=%v: reloaded manifest holds %d entries, want 1", armed, m.Len())
		}
		for key, e := range m.entries {
			switch {
			case armed && len(e.Metrics) == 0:
				t.Errorf("metrics armed: entry %s stored no metric deltas", key)
			case armed && !reflect.DeepEqual(e.Metrics, opt.Checkpoint.entries[key].Metrics):
				t.Errorf("metrics armed: entry %s deltas changed across the reload", key)
			case !armed && e.Metrics != nil:
				t.Errorf("default batch: entry %s stored %d metrics", key, len(e.Metrics))
			}
		}
	}
}
