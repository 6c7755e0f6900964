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
	"path"
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
		FS:            recordOnce{f},
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
	m, err := experiments.OpenManifest(recordOnce{f}, "batch.manifest.json")
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
	results, err := runner.RunBenches(core.Base())
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

// recordOnce is a drill's filesystem with the write-side half of the
// no-resimulation invariant. A spec's record is written once per
// simulation, and a correct resume reuses every persisted record, so
// publishing a checkpoint record over one already on disk means a
// persisted spec was simulated again. The records cannot show that
// afterwards: a loader that drops a record makes the resume write a
// fresh one with runs: 1, byte for byte what it replaces. So before
// such a rename, recordOnce moves the old record aside to
// <record>+resimulatedSuffix, where ManifestsRunOnce finds it. Both
// scenarios start from an empty filesystem, so no legacy import (which
// may rewrite the records an interrupted import wrote) runs under it.
type recordOnce struct{ vfs.FS }

// resimulatedSuffix marks a record recordOnce saw written again.
const resimulatedSuffix = ".resimulated"

func (o recordOnce) Rename(oldname, newname string) error {
	if isManifestRecord(newname) {
		if _, err := o.Stat(newname); err == nil {
			if err := o.FS.Rename(newname, newname+resimulatedSuffix); err != nil {
				return err
			}
		}
	}
	return o.FS.Rename(oldname, newname)
}

// isManifestRecord reports whether file is a record of a checkpoint
// manifest: a <key>.json file in a *.manifest.json directory.
func isManifestRecord(file string) bool {
	dir, name := path.Split(file)
	return strings.HasSuffix(path.Clean(dir), ".manifest.json") && strings.HasSuffix(name, ".json")
}

// ManifestsRunOnce is the no-resimulation invariant: after recovery,
// every record in every checkpoint manifest (a *.manifest.json record
// directory) must say its spec was simulated exactly once, and no
// persisted record may have been written again (recordOnce). It
// decodes the record files itself, not through
// experiments.OpenManifest, so a loader that drops or misreads a record
// cannot hide it from the check; a record that does not decode, and one
// a loader quarantined, fail it too.
func ManifestsRunOnce(m *vfs.Mem) error {
	for _, file := range m.Files() {
		dir := path.Dir(file)
		if !strings.HasSuffix(dir, ".manifest.json") || strings.HasSuffix(file, ".tmp") {
			continue
		}
		if strings.HasSuffix(file, resimulatedSuffix) {
			return fmt.Errorf("manifest record %s: written again — a resume re-simulated persisted work",
				strings.TrimSuffix(file, resimulatedSuffix))
		}
		if !isManifestRecord(file) {
			return fmt.Errorf("manifest record %s: corrupt on disk (quarantined)", file)
		}
		data, err := m.ReadFile(file)
		if err != nil {
			return err
		}
		var rec struct {
			Version int `json:"version"`
			Entry   *struct {
				Runs int `json:"runs"`
			} `json:"entry"`
		}
		if err := json.Unmarshal(data, &rec); err != nil || rec.Version != 1 || rec.Entry == nil {
			return fmt.Errorf("manifest record %s: does not decode as a version 1 entry (%v)", file, err)
		}
		if rec.Entry.Runs != 1 {
			return fmt.Errorf("manifest record %s: simulated %d times — a resume re-ran checkpointed work", file, rec.Entry.Runs)
		}
	}
	return nil
}
