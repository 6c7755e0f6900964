package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/harden"
	"memsim/internal/vfs"
)

// orchOptions is the small-budget batch the orchestrator tests share:
// three benchmarks with the forward-progress watchdog armed.
func orchOptions() Options {
	return Options{
		Instrs:     30_000,
		Warmup:     60_000,
		Benchmarks: []string{"swim", "mcf", "gzip"},
		Harden:     core.HardenConfig{WatchdogCycles: 50_000},
	}
}

// wedged is the abort a hung run ends in: the watchdog's. It recurs
// at the same simulated time on every attempt, so it is not retried.
func wedged(sp spec) error {
	return &harden.WatchdogError{WindowCycles: 50_000, Dump: sp.bench + " wedged"}
}

// failMCF aborts every attempt of mcf as the watchdog would a wedged
// run, while the rest of the batch runs clean: a deterministic
// mid-batch failure.
func failMCF(sp spec) error {
	if sp.bench == "mcf" {
		return wedged(sp)
	}
	return nil
}

// timeoutMCF overruns the per-run deadline on every attempt of mcf,
// the one failure a retry can cure.
func timeoutMCF(sp spec) error {
	if sp.bench == "mcf" {
		return fmt.Errorf("%s: %w", sp.bench, context.DeadlineExceeded)
	}
	return nil
}

func TestRunAllParallelismDeterminism(t *testing.T) {
	run := func(parallelism int) []core.Result {
		opt := orchOptions()
		opt.Parallelism = parallelism
		r, err := NewRunner(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunBenches(core.Base())
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
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
	opt.failFor = timeoutMCF
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	all, err := r.RunBenches(core.Base())
	if err != nil {
		t.Fatalf("degraded batch returned error: %v", err)
	}
	res := all[0]
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	// The failed spec's cell is the NaN marker; the survivors are real.
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
	if !errors.Is(f.Err, context.DeadlineExceeded) {
		t.Errorf("failure cause %v is not a per-run timeout", f.Err)
	}
	if got := r.DrainFailures(); len(got) != 0 {
		t.Errorf("failures not drained: %+v", got)
	}
}

// TestWatchdogAbortNotRetried: a watchdog abort is deterministic, so a
// batch granted retries still tries the spec once.
func TestWatchdogAbortNotRetried(t *testing.T) {
	opt := orchOptions()
	opt.Retries = 2
	opt.KeepGoing = true
	opt.failFor = failMCF
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunBenches(core.Base()); err != nil {
		t.Fatalf("degraded batch returned error: %v", err)
	}
	if c := r.Counts(); c.Retried != 0 || c.Failed != 1 {
		t.Errorf("counts = %+v, want Retried 0, Failed 1", c)
	}
	fails := r.DrainFailures()
	var wd *harden.WatchdogError
	if len(fails) != 1 || fails[0].Attempts != 1 || !errors.As(fails[0].Err, &wd) {
		t.Fatalf("failures = %+v, want one watchdog abort after 1 attempt", fails)
	}
}

func TestOrchestratorFailFastAggregates(t *testing.T) {
	opt := orchOptions()
	opt.failFor = failMCF
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunBenches(core.Base())
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
	opt.failFor = failMCF
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

// TestDegradedConfigurationLost: under KeepGoing the batch is the whole
// artifact, so losing every spec of one configuration (Figure 1's
// real-memory column) degrades the artifact instead of aborting it.
// The column's cells read FAILED and the trailer names each lost spec.
func TestDegradedConfigurationLost(t *testing.T) {
	opt := orchOptions()
	opt.KeepGoing = true
	opt.failFor = func(sp spec) error {
		if !sp.cfg.PerfectL2 && !sp.cfg.PerfectMem {
			return wedged(sp)
		}
		return nil
	}
	r, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ByID("fig1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(r, &buf); err != nil {
		t.Fatalf("artifact with one lost configuration did not render: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "DEGRADED: 3 run(s) lost") {
		t.Errorf("rendered output lacks a DEGRADED trailer for 3 runs:\n%s", out)
	}
	for _, b := range r.Benchmarks() {
		key := r.specKey(spec{bench: b, cfg: core.Base()})
		if !strings.Contains(out, "FAILED("+b+" ["+key+"]") {
			t.Errorf("trailer does not name the lost %s spec [%s]", b, key)
		}
		row := ""
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, b+" ") {
				row = line
			}
		}
		if strings.Count(row, "FAILED") != 2 {
			t.Errorf("%s row %q: want its two stall cells FAILED", b, row)
		}
	}
	if c := r.Counts(); c.Failed != 3 || c.Completed != 6 {
		t.Errorf("counts = %+v, want Failed 3, Completed 6", c)
	}
}

func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")

	// First batch: mcf is lost to the watchdog, the two survivors land in
	// the checkpoint.
	opt := orchOptions()
	opt.KeepGoing = true
	opt.failFor = failMCF
	opt.Checkpoint = openOS(t, path)
	r1, err := NewRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	all, err := r1.RunBenches(core.Base())
	if err != nil {
		t.Fatal(err)
	}
	first := all[0]
	if n := opt.Checkpoint.Len(); n != 2 {
		t.Fatalf("checkpoint holds %d specs after degraded batch, want 2", n)
	}
	if n := opt.Checkpoint.TotalRuns(); n != 2 {
		t.Fatalf("checkpoint records %d runs, want 2", n)
	}

	// Resumed batch: same budgets and hardening (the spec keys hash the
	// full config), mcf no longer failing. The survivors must be reused
	// verbatim and only mcf simulated.
	m := openOS(t, path)
	opt2 := orchOptions()
	opt2.Checkpoint = m
	r2, err := NewRunner(opt2)
	if err != nil {
		t.Fatal(err)
	}
	all, err = r2.RunBenches(core.Base())
	if err != nil {
		t.Fatal(err)
	}
	second := all[0]
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
	if _, err := r.RunBenches(core.Base()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestManifestLoadErrors(t *testing.T) {
	dir := t.TempDir()

	// Missing file: resuming a batch that never started is starting it.
	m, err := OpenManifest(vfs.OS, filepath.Join(dir, "absent.json"))
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
	m, err = OpenManifest(vfs.OS, bad)
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
	if fi, err := os.Stat(bad); err != nil || !fi.IsDir() {
		t.Errorf("corrupt file still in place of the record directory: %v", err)
	}
	// The replacement manifest must be fully usable at the same path.
	if err := m.Record("k1", "gcc", core.Result{IPC: 1}, nil); err != nil {
		t.Fatalf("fresh manifest not writable: %v", err)
	}
	reloaded, err := OpenManifest(vfs.OS, bad)
	if err != nil || reloaded.Len() != 1 {
		t.Fatalf("reload after quarantine: %v, %d entries", err, reloaded.Len())
	}

	// A version mismatch is a deliberate schema change, not crash
	// damage: it stays a hard error.
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"version": 99, "entries": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManifest(vfs.OS, wrong); err == nil {
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
		opt := Options{Instrs: 5_000, Warmup: 5_000, Benchmarks: []string{"swim"}, Checkpoint: openOS(t, path)}
		opt.Obs.Metrics = armed
		r, err := NewRunner(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunBenches(core.Base()); err != nil {
			t.Fatal(err)
		}
		if err := opt.Checkpoint.Save(); err != nil {
			t.Fatal(err)
		}
		m := openOS(t, path)
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
