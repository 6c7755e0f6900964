package server

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
	"testing"
	"time"

	"memsim/internal/core"
	"memsim/internal/experiments"
)

// newService builds a test daemon with quiet logging and small budgets.
func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	cfg.Logger = log.New(io.Discard, "", 0)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return svc
}

// instantHook completes any job immediately with a canned result.
func instantHook(ctx context.Context, job Job) ([]core.Result, uint64, error) {
	return []core.Result{{IPC: 1}}, 0, nil
}

// gatedHook blocks every job until the gate closes (or its context
// dies), making queue occupancy deterministic.
func gatedHook(gate chan struct{}) func(context.Context, Job) ([]core.Result, uint64, error) {
	return func(ctx context.Context, job Job) ([]core.Result, uint64, error) {
		select {
		case <-gate:
			return []core.Result{{IPC: 1}}, 0, nil
		case <-ctx.Done():
			return nil, 0, context.Cause(ctx)
		}
	}
}

// submit posts a job body and decodes the response.
func submit(t *testing.T, ts *httptest.Server, body string) (*http.Response, Job) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, j
}

// waitState polls the store until the job reaches want.
func waitState(t *testing.T, svc *Service, id string, want JobState, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, ok := svc.store.Get(id)
		if ok && j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: state %v, want %v (err %q)", id, j.State, want, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricsText scrapes /metrics through the handler.
func metricsText(t *testing.T, svc *Service) string {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestSubmitAndComplete drives one real (simulated) job through the
// whole HTTP surface: submit, poll, result, artifact, metrics.
func TestSubmitAndComplete(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, job := submit(t, ts, `{"benchmarks":["gcc"],"instrs":20000,"warmup":30000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}
	done := waitState(t, svc, job.ID, StateDone, 60*time.Second)
	if len(done.Results) != 1 || !(done.Results[0].IPC > 0) {
		t.Fatalf("results = %+v", done.Results)
	}

	r2, err := http.Get(ts.URL + "/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("result = %d", r2.StatusCode)
	}

	r3, err := http.Get(ts.URL + "/jobs/" + job.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	csv, _ := io.ReadAll(r3.Body)
	if !strings.HasPrefix(string(csv), "bench,ipc,l2_miss_rate\ngcc,") {
		t.Fatalf("artifact = %q", csv)
	}

	text := metricsText(t, svc)
	for _, want := range []string{
		"memsimd_jobs_admitted_total 1",
		"memsimd_jobs_completed_total 1",
		"memsimd_queue_depth 0",
		"memsimd_job_duration_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobProgress polls GET /jobs/{id} while a real simulation runs:
// a running job exposes live instructions_retired/sim_time_ps, and the
// finished record holds the measured totals.
func TestJobProgress(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, job := submit(t, ts, `{"benchmarks":["mcf"],"instrs":400000,"warmup":100000}`)
	sawLive := false
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(ts.URL + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var j Job
		if err := json.NewDecoder(r.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if j.State == StateRunning && j.InstructionsRetired > 0 && j.SimTime > 0 {
			sawLive = true
		}
		if j.State == StateDone {
			if j.InstructionsRetired == 0 || j.SimTime == 0 {
				t.Fatalf("done job missing totals: retired=%d sim_time=%v", j.InstructionsRetired, j.SimTime)
			}
			if !sawLive {
				// A fast machine can finish between polls; the totals
				// above still prove the fields flow end to end.
				t.Logf("job finished before a live poll observed progress")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
}

// TestCrashResumeBitIdentical is the headline fault drill: a daemon
// killed mid-job (no store writes, exactly like SIGKILL) and restarted
// over the same state directory must finish the job with results
// bit-identical to an uninterrupted golden run — reusing, not
// re-simulating, the specs that finished before the kill.
func TestCrashResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation drill")
	}
	const spec = `{"benchmarks":["gcc","mcf","swim"],"instrs":150000,"warmup":250000}`

	// Golden: uninterrupted run.
	golden := newService(t, Config{Workers: 1})
	gts := httptest.NewServer(golden.Handler())
	defer gts.Close()
	_, gjob := submit(t, gts, spec)
	gdone := waitState(t, golden, gjob.ID, StateDone, 120*time.Second)
	goldenJSON, err := json.Marshal(gdone.Results)
	if err != nil {
		t.Fatal(err)
	}

	// Drill: same spec on a fresh state dir, killed after the first
	// spec checkpoints but before the suite finishes.
	dir := t.TempDir()
	victim := newService(t, Config{Workers: 1, StateDir: dir})
	vts := httptest.NewServer(victim.Handler())
	_, vjob := submit(t, vts, spec)
	mpath := victim.Store().ManifestPath(vjob.ID)
	deadline := time.Now().Add(120 * time.Second)
	for {
		m, err := experiments.LoadManifest(mpath)
		if err == nil && m.Len() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first spec never checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
	victim.Kill()
	vts.Close()

	killed, _ := victim.Store().Get(vjob.ID)
	if killed.State != StateRunning {
		// The whole suite finished before the kill landed; the drill
		// did not exercise a resume. Budgets above are sized to make
		// this effectively impossible (two full specs in ~2ms).
		t.Fatalf("job finished before kill: %v", killed.State)
	}
	preResumed, err := experiments.LoadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if preResumed.Len() >= 3 {
		t.Fatalf("all specs checkpointed before kill; drill resumed nothing")
	}

	// Restart over the same directory: the job must be re-adopted and
	// finish bit-identically.
	revived := newService(t, Config{Workers: 1, StateDir: dir})
	rdone := waitState(t, revived, vjob.ID, StateDone, 120*time.Second)
	revivedJSON, err := json.Marshal(rdone.Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goldenJSON, revivedJSON) {
		t.Fatalf("resumed results differ from golden:\n%s\nvs\n%s", revivedJSON, goldenJSON)
	}
	if rdone.Resumes != 1 {
		t.Fatalf("resumes = %d", rdone.Resumes)
	}
	if rdone.SpecsReused < 1 {
		t.Fatal("resume re-simulated every spec")
	}
	if !strings.Contains(metricsText(t, revived), `memsimd_jobs_resumed_total 1`) {
		t.Fatal("resumed counter not exported")
	}
	// Total simulation count across both daemons must equal one golden
	// run: the resume reused the checkpoint instead of re-running.
	m, err := experiments.LoadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalRuns() != 3 {
		t.Fatalf("total runs = %d, want 3", m.TotalRuns())
	}
}

// TestOverloadSheds verifies the admission watermarks: with the worker
// wedged and the queue full, further submissions get 429 with a
// Retry-After hint instead of unbounded queue growth.
func TestOverloadSheds(t *testing.T) {
	gate := make(chan struct{})
	svc := newService(t, Config{Workers: 1, QueueDepth: 2, RatePerSec: -1, runHook: gatedHook(gate)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const body = `{"benchmarks":["gcc"]}`
	_, j1 := submit(t, ts, body)
	waitState(t, svc, j1.ID, StateRunning, 10*time.Second)
	var accepted []Job
	for i := 0; i < 2; i++ {
		resp, j := submit(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue submission %d = %d", i, resp.StatusCode)
		}
		accepted = append(accepted, j)
	}

	resp, _ := submit(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate)
	for _, j := range accepted {
		waitState(t, svc, j.ID, StateDone, 10*time.Second)
	}
	text := metricsText(t, svc)
	if !strings.Contains(text, `memsimd_jobs_shed_total{reason="queue_full"} 1`) {
		t.Fatalf("shed counter missing:\n%s", text)
	}
	if !strings.Contains(text, "memsimd_jobs_admitted_total 3") {
		t.Fatal("admitted counter wrong")
	}
}

// TestRateLimitSheds verifies the per-client token bucket.
func TestRateLimitSheds(t *testing.T) {
	svc := newService(t, Config{Workers: 1, RatePerSec: 0.5, Burst: 1, runHook: instantHook})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req := func(client string) *http.Response {
		r, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(`{"benchmarks":["gcc"]}`))
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp
	}
	if code := req("alice").StatusCode; code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	resp := req("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst-exceeding submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("rate-limited 429 without Retry-After")
	}
	// An unrelated client is not punished.
	if code := req("bob").StatusCode; code != http.StatusAccepted {
		t.Fatalf("independent client = %d", code)
	}
	if !strings.Contains(metricsText(t, svc), `memsimd_jobs_shed_total{reason="rate_limited"} 1`) {
		t.Fatal("rate-limit shed counter missing")
	}
}

// TestMalformedBodies feeds the submission endpoint every malformed
// shape and expects a typed 4xx — never a 500, never a dead daemon.
func TestMalformedBodies(t *testing.T) {
	svc := newService(t, Config{Workers: 1, RatePerSec: -1, MaxBodyBytes: 512, runHook: instantHook})

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"empty", "", http.StatusBadRequest, codeMalformedJSON},
		{"truncated", `{"preset":"ba`, http.StatusBadRequest, codeMalformedJSON},
		{"not json", "DELETE * FROM jobs", http.StatusBadRequest, codeMalformedJSON},
		{"wrong type", `{"instrs":"many"}`, http.StatusBadRequest, codeWrongType},
		{"wrong root type", `"a string"`, http.StatusBadRequest, codeWrongType},
		{"unknown field", `{"bogus":1}`, http.StatusBadRequest, codeUnknownField},
		{"retired engine field", `{"config":{"engine":"heap"}}`, http.StatusBadRequest, codeUnknownField},
		{"trailing document", `{}{"preset":"base"}`, http.StatusBadRequest, codeMalformedJSON},
		{"oversized", `{"benchmarks":["` + strings.Repeat("a", 600) + `"]}`, http.StatusRequestEntityTooLarge, codeOversized},
		{"unknown preset", `{"preset":"exotic"}`, http.StatusBadRequest, codeInvalidSpec},
		{"unknown benchmark", `{"benchmarks":["nope"]}`, http.StatusBadRequest, codeInvalidSpec},
		{"negative deadline", `{"deadline_seconds":-1}`, http.StatusBadRequest, codeInvalidSpec},
		{"invalid config", `{"config":{"channels":3}}`, http.StatusUnprocessableEntity, codeInvalidConfig},
		{"unknown sched policy", `{"config":{"sched_policy":"exotic"}}`, http.StatusUnprocessableEntity, codeInvalidConfig},
		{"unknown bank timing", `{"config":{"bank_timing":"exotic"}}`, http.StatusUnprocessableEntity, codeInvalidConfig},
		{"huge job", `{"instrs":999999999999}`, http.StatusBadRequest, codeJobTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/jobs", strings.NewReader(tc.body))
			svc.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("non-JSON error body: %q", rec.Body)
			}
			if eb.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", eb.Error.Code, tc.code)
			}
		})
	}
	// An invalid-config rejection names the offending fields.
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs",
		strings.NewReader(`{"config":{"channels":3}}`)))
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || len(eb.Error.Fields) == 0 {
		t.Fatalf("config rejection without field list: %s", rec.Body)
	}

	// The daemon shrugged it all off.
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after hostile input = %d", rec.Code)
	}
	if !strings.Contains(metricsText(t, svc), fmt.Sprintf("memsimd_bad_requests_total %d", len(cases)+1)) {
		t.Fatal("bad-request counter wrong")
	}
}

// TestDrainRequeuesRunningJob verifies graceful degradation: a drain
// interrupts the running job, which checkpoints and returns to the
// queue; a successor daemon over the same directory completes it.
func TestDrainRequeuesRunningJob(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	defer close(gate)
	svc := newService(t, Config{Workers: 1, StateDir: dir, runHook: gatedHook(gate)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, job := submit(t, ts, `{"benchmarks":["gcc"]}`)
	waitState(t, svc, job.ID, StateRunning, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	requeued, _ := svc.Store().Get(job.ID)
	if requeued.State != StateQueued {
		t.Fatalf("state after drain = %v, want queued", requeued.State)
	}

	// A draining daemon sheds new submissions with 503.
	resp, _ := submit(t, ts, `{"benchmarks":["gcc"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}

	successor := newService(t, Config{Workers: 1, StateDir: dir, runHook: instantHook})
	waitState(t, successor, job.ID, StateDone, 10*time.Second)
}

// TestCancel covers both cancellation paths: a queued job flips to
// canceled immediately, a running one unwinds through its context.
func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	svc := newService(t, Config{Workers: 1, QueueDepth: 4, RatePerSec: -1, runHook: gatedHook(gate)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, running := submit(t, ts, `{"benchmarks":["gcc"]}`)
	waitState(t, svc, running.ID, StateRunning, 10*time.Second)
	_, queued := submit(t, ts, `{"benchmarks":["gcc"]}`)

	del := func(id string) int {
		req, err := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := del(queued.ID); code != http.StatusOK {
		t.Fatalf("cancel queued = %d", code)
	}
	waitState(t, svc, queued.ID, StateCanceled, 10*time.Second)

	if code := del(running.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running = %d", code)
	}
	waitState(t, svc, running.ID, StateCanceled, 10*time.Second)

	// Canceling a terminal job is a conflict.
	if code := del(running.ID); code != http.StatusConflict {
		t.Fatalf("cancel terminal = %d", code)
	}
	// Both admission slots must be back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		q, r := svc.adm.depths()
		if q == 0 && r == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission slots leaked: queued %d running %d", q, r)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPanicIsolation wedges a panic into the job path: the job must
// fail, the daemon must not.
func TestPanicIsolation(t *testing.T) {
	svc := newService(t, Config{Workers: 1, RatePerSec: -1,
		runHook: func(ctx context.Context, job Job) ([]core.Result, uint64, error) {
			panic("synthetic fault")
		}})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, job := submit(t, ts, `{"benchmarks":["gcc"]}`)
	failed := waitState(t, svc, job.ID, StateFailed, 10*time.Second)
	if !strings.Contains(failed.Error, "panic") {
		t.Fatalf("error = %q", failed.Error)
	}
	// The worker survived: it picks up and fails the next job too.
	_, job2 := submit(t, ts, `{"benchmarks":["gcc"]}`)
	waitState(t, svc, job2.ID, StateFailed, 10*time.Second)
	if !strings.Contains(metricsText(t, svc), "memsimd_jobs_failed_total 2") {
		t.Fatal("failed counter wrong")
	}
}

// TestDeadline bounds a wedged job's hold on its worker.
func TestDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	svc := newService(t, Config{Workers: 1, runHook: gatedHook(gate)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, job := submit(t, ts, `{"benchmarks":["gcc"],"deadline_seconds":0.05}`)
	failed := waitState(t, svc, job.ID, StateFailed, 10*time.Second)
	if !strings.Contains(failed.Error, "deadline exceeded") {
		t.Fatalf("error = %q", failed.Error)
	}
}

// TestJobEndpoints covers the read-side status codes.
func TestJobEndpoints(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	svc := newService(t, Config{Workers: 1, runHook: gatedHook(gate)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get("/jobs/j999999"); code != http.StatusNotFound {
		t.Fatalf("missing job = %d", code)
	}
	_, job := submit(t, ts, `{"benchmarks":["gcc"]}`)
	if code := get("/jobs/" + job.ID); code != http.StatusOK {
		t.Fatalf("get job = %d", code)
	}
	// Result of an unfinished job is a conflict, not an empty 200.
	if code := get("/jobs/" + job.ID + "/result"); code != http.StatusConflict {
		t.Fatalf("early result = %d", code)
	}
	if code := get("/jobs/" + job.ID + "/artifact"); code != http.StatusConflict {
		t.Fatalf("early artifact = %d", code)
	}
	if code := get("/jobs"); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
}

// TestPolicyOverrides pins the policy-zoo override wiring: scheme
// names land in the Config, and the one-field frfcfs-cap override
// defaults its scan window so it admits without a paired
// reorder_window.
func TestPolicyOverrides(t *testing.T) {
	sched := "frfcfs-cap"
	spec := JobSpec{Config: &ConfigOverrides{SchedPolicy: &sched}}
	cfg, err := spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SchedPolicy != "frfcfs-cap" || cfg.ReorderWindow != 8 {
		t.Fatalf("sched override: policy %q window %d, want frfcfs-cap/8", cfg.SchedPolicy, cfg.ReorderWindow)
	}

	timing := "rowreuse"
	spec = JobSpec{Config: &ConfigOverrides{BankTiming: &timing}}
	cfg, err = spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BankTiming != "rowreuse" {
		t.Fatalf("bank timing override: %q", cfg.BankTiming)
	}

	// An explicit reorder_window wins over the frfcfs-cap default.
	window := 16
	spec = JobSpec{Config: &ConfigOverrides{SchedPolicy: &sched, ReorderWindow: &window}}
	cfg, err = spec.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ReorderWindow != 16 {
		t.Fatalf("explicit window overridden to %d", cfg.ReorderWindow)
	}
}
