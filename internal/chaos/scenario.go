package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"memsim/internal/core"
	"memsim/internal/experiments"
	"memsim/internal/server"
	"memsim/internal/vfs"
)

// Budgets small enough that one simulated execution is milliseconds —
// a full exploration runs hundreds of executions — but large enough
// that the workload exercises real cache and row-buffer behavior.
const (
	drillInstrs = 2_000
	drillWarmup = 500
)

// settleTimeout bounds how long a scenario waits for the daemon to
// finish its jobs; drills never get close, it only catches a wedged
// explorer.
const settleTimeout = 30 * time.Second

// ServerScenario drills a full memsimd job lifecycle: open the state
// directory (adopting whatever a crashed predecessor left), submit a
// job through the real HTTP surface if none has completed yet, run it
// on the worker pool with per-spec checkpointing, and drain. The
// canonical bytes are the completed job's Results — timestamps,
// resume counters, and job metadata legitimately differ across
// crashes and are excluded.
func ServerScenario() Scenario {
	return serverScenario{}
}

type serverScenario struct{}

func (serverScenario) Name() string { return "memsimd-job" }

func (serverScenario) Run(f *vfs.Fault) ([]byte, error) {
	svc, err := server.New(server.Config{
		StateDir:      "state",
		Workers:       1,
		DefaultInstrs: drillInstrs,
		DefaultWarmup: drillWarmup,
		FS:            f,
		Logger:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		if f.Crashed() {
			return nil, vfs.ErrCrashed
		}
		return nil, err
	}
	defer svc.Kill()

	// Let adopted jobs from a previous life settle to terminal states.
	if err := waitSettled(svc, f); err != nil {
		return nil, err
	}
	// Submit a fresh job unless a previous execution already finished
	// one (the adopted-and-resumed path).
	if !hasDoneJob(svc) {
		status, body := submit(svc, `{"benchmarks":["swim"],"seed":7}`)
		if status != http.StatusAccepted {
			if f.Crashed() {
				return nil, vfs.ErrCrashed
			}
			return nil, fmt.Errorf("submit: %d %s", status, bytes.TrimSpace(body))
		}
		if err := waitSettled(svc, f); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), settleTimeout)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		if f.Crashed() {
			return nil, vfs.ErrCrashed
		}
		return nil, err
	}
	return canonicalResults(svc, f)
}

// submit POSTs a job spec through the real handler stack.
func submit(svc *server.Service, spec string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(spec))
	req.Header.Set("X-Client-ID", "chaos")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// waitSettled polls until every stored job is terminal, failing fast
// when a crash fault lands mid-run.
func waitSettled(svc *server.Service, f *vfs.Fault) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		if f.Crashed() {
			return vfs.ErrCrashed
		}
		settled := true
		for _, j := range svc.Store().List() {
			if j.State == server.StateQueued || j.State == server.StateRunning {
				settled = false
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: daemon did not settle within %s", settleTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// hasDoneJob reports whether any stored job completed.
func hasDoneJob(svc *server.Service) bool {
	for _, j := range svc.Store().List() {
		if j.State == server.StateDone {
			return true
		}
	}
	return false
}

// canonicalResults marshals the first completed job's Results. Every
// done job in a drill ran the same spec on the deterministic
// simulator, so any completed job carries the golden measurements.
func canonicalResults(svc *server.Service, f *vfs.Fault) ([]byte, error) {
	for _, j := range svc.Store().List() {
		if j.State == server.StateDone {
			return json.Marshal(j.Results)
		}
	}
	if f.Crashed() {
		return nil, vfs.ErrCrashed
	}
	return nil, fmt.Errorf("chaos: no job completed")
}

// BatchScenario drills an experiments batch with an on-disk
// checkpoint manifest: load (or resume) the manifest, run a two-bench
// suite through the orchestrator, save. Canonical bytes are the bench
// results in suite order, so a resume that reuses a torn entry or
// re-simulates into different bytes fails the differential check.
func BatchScenario() Scenario {
	return batchScenario{}
}

type batchScenario struct{}

func (batchScenario) Name() string { return "experiments-batch" }

func (batchScenario) Run(f *vfs.Fault) ([]byte, error) {
	m, err := experiments.LoadManifestFS("batch.manifest.json", f)
	if err != nil {
		if f.Crashed() {
			return nil, vfs.ErrCrashed
		}
		return nil, err
	}
	runner, err := experiments.NewRunner(experiments.Options{
		Instrs:      drillInstrs,
		Warmup:      drillWarmup,
		Benchmarks:  []string{"swim", "mcf"},
		Parallelism: 1, // deterministic persistence-boundary order
		Checkpoint:  m,
	})
	if err != nil {
		return nil, err
	}
	results, err := runner.RunBenches(core.Base(), false)
	if serr := m.Save(); err == nil && serr != nil {
		err = serr
	}
	if f.Crashed() {
		return nil, vfs.ErrCrashed
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(results)
}

// ManifestsRunOnce is the no-resimulation invariant: after recovery,
// every entry in every surviving checkpoint manifest must have been
// simulated exactly once (TotalRuns == Len). A resume that misses a
// persisted entry re-simulates it and trips this check.
func ManifestsRunOnce(m *vfs.Mem) error {
	for _, name := range m.Files() {
		if !strings.HasSuffix(name, ".manifest.json") {
			continue
		}
		man, err := experiments.LoadManifestFS(name, m)
		if err != nil {
			return fmt.Errorf("manifest %s: %w", name, err)
		}
		if q := man.Quarantined(); q != "" {
			return fmt.Errorf("manifest %s: corrupt on disk (quarantined as %s)", name, q)
		}
		if man.TotalRuns() != man.Len() {
			return fmt.Errorf("manifest %s: %d entries but %d simulations — a resume re-ran checkpointed work",
				name, man.Len(), man.TotalRuns())
		}
	}
	return nil
}
