// Package server is memsim-as-a-service: a crash-safe HTTP daemon
// (cmd/memsimd) that accepts simulation jobs as JSON, runs them on the
// experiments worker pool, and serves status, results, artifacts, and
// Prometheus metrics by job id.
//
// The robustness contract, in order of importance:
//
//   - Crash safety. Every job transition persists that job's own
//     record file (jobs/<id>.json) and every finished spec its per-job
//     checkpoint manifest, both written atomically. A killed daemon
//     restarted over the same state directory re-adopts interrupted
//     jobs and resumes them from their manifests; because the
//     simulator is deterministic, the resumed results are
//     bit-identical to an uninterrupted run.
//   - Graceful degradation. Admission control — a bounded queue with
//     a watermark on queued work, plus per-client token buckets —
//     sheds load with 429 + Retry-After instead of growing without
//     bound. A draining daemon answers new submissions with 503 while
//     checkpointing in-flight jobs.
//   - Fault isolation. A panicking job marks itself FAILED without
//     taking down the daemon; per-job deadlines and the forward-
//     progress watchdog bound how long a wedged simulation can hold a
//     worker; malformed request bodies get typed 4xx errors.
package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memsim/internal/core"
	"memsim/internal/experiments"
	"memsim/internal/obs"
	"memsim/internal/sim"
	"memsim/internal/vfs"
)

// Cancellation causes, distinguishable via errors.Is on the run error.
var (
	// errDraining interrupts running jobs during a graceful drain;
	// they checkpoint and return to the queue for the next daemon.
	errDraining = errors.New("memsimd: draining")
	// errKilled simulates a hard kill (SIGKILL) for the fault drills:
	// workers abandon their jobs without touching the store, leaving
	// exactly the on-disk state a real crash would.
	errKilled = errors.New("memsimd: hard kill")
	// errCanceledByClient marks a DELETE /jobs/{id} cancellation.
	errCanceledByClient = errors.New("memsimd: canceled by client")
)

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	// StateDir holds the job records (jobs/<id>.json) and the per-job
	// checkpoint manifests.
	StateDir string
	// Workers bounds concurrently executing jobs (default 2).
	Workers int
	// JobParallelism is the per-job worker pool width (default 1:
	// concurrency comes from running jobs, not from inside them).
	JobParallelism int
	// QueueDepth is the admission watermark on waiting jobs
	// (default 64); beyond it submissions shed with 429.
	QueueDepth int
	// RatePerSec and Burst shape the per-client token bucket
	// (defaults 5/s, burst 10); RatePerSec < 0 disables limiting.
	RatePerSec float64
	Burst      int
	// DefaultInstrs/DefaultWarmup are the budgets for specs that omit
	// them (defaults: the experiments defaults).
	DefaultInstrs uint64
	DefaultWarmup uint64
	// MaxJobCost bounds (instrs+warmup)×benchmarks per job
	// (default 500M simulated instructions).
	MaxJobCost uint64
	// DefaultDeadline bounds a job execution's wall-clock time when
	// the spec names none (default 15m); MaxDeadline caps what a spec
	// may ask for (default 1h).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// WatchdogCycles arms the forward-progress watchdog on every run
	// (default 5M core cycles; <0 disables).
	WatchdogCycles int64
	// MaxBodyBytes bounds a submission body (default 1 MiB).
	MaxBodyBytes int64
	// FS is the filesystem the store and the checkpoint manifests
	// persist on (default vfs.OS); the chaos explorer substitutes a
	// fault-injecting one.
	FS vfs.FS
	// Logger receives operational messages; nil logs to stderr.
	Logger *log.Logger

	// runHook replaces the simulation path in tests that need a
	// deterministic slow, failing, or panicking job. Always nil in
	// production (unexported: only in-package tests can set it).
	runHook func(ctx context.Context, job Job) ([]core.Result, uint64, error)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	def := experiments.Defaults()
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobParallelism <= 0 {
		c.JobParallelism = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 5
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.DefaultInstrs == 0 {
		c.DefaultInstrs = def.Instrs
	}
	if c.DefaultWarmup == 0 {
		c.DefaultWarmup = def.Warmup
	}
	if c.MaxJobCost == 0 {
		c.MaxJobCost = 500_000_000
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 15 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = time.Hour
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = 5_000_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "memsimd: ", log.LstdFlags)
	}
	return c
}

// Service is one daemon instance over a state directory.
type Service struct {
	cfg     Config
	log     *log.Logger
	store   *Store
	adm     *admission
	limiter *rateLimiter
	met     *metrics
	queue   chan string

	// rootCtx dies only on Kill (the simulated crash); workCtx, its
	// child, also dies on Drain. Job contexts derive from workCtx, so
	// one cancellation reaches every running simulation at event-loop
	// granularity, carrying a cause that tells workers whether to
	// requeue (drain) or vanish (kill).
	rootCtx context.Context
	killFn  context.CancelCauseFunc
	workCtx context.Context
	drainFn context.CancelCauseFunc

	draining atomic.Bool
	workers  sync.WaitGroup

	cancelsMu sync.Mutex
	cancels   map[string]context.CancelCauseFunc

	progressMu sync.Mutex
	progress   map[string]*jobProgress

	handler http.Handler
	runHook func(ctx context.Context, job Job) ([]core.Result, uint64, error)
}

// New opens the state directory, re-adopts every interrupted job, and
// starts the worker pool. The returned service is already executing;
// attach Handler to an http.Server to accept requests.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	store, err := OpenStoreFS(cfg.StateDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	if q := store.Quarantined(); q != "" {
		cfg.Logger.Printf("job store held corrupt data; quarantined as %s, every other record loaded", q)
	}

	adm := newAdmission(cfg.QueueDepth)
	pending := store.Pending()
	s := &Service{
		cfg:     cfg,
		log:     cfg.Logger,
		store:   store,
		adm:     adm,
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst),
		met:     newMetrics(adm),
		queue:   make(chan string, cfg.QueueDepth+cfg.Workers+len(pending)),
		runHook: cfg.runHook,
	}
	s.rootCtx, s.killFn = context.WithCancelCause(context.Background())
	s.workCtx, s.drainFn = context.WithCancelCause(s.rootCtx)
	s.handler = s.routes()

	// Re-adopt interrupted work in allocation order: running jobs go
	// back to queued (their manifests hold the finished specs), queued
	// jobs simply re-enter the queue. Adoption bypasses the admission
	// watermark — these jobs were admitted in a previous life.
	for _, j := range pending {
		if j.State == StateRunning {
			if _, err := store.Update(j.ID, func(j *Job) {
				j.State = StateQueued
				j.StartedAt = nil
				j.Resumes++
			}); err != nil {
				return nil, err
			}
			s.met.resumedJobs.Add(1)
			s.log.Printf("job %s: interrupted mid-run by a previous daemon; re-adopted for resume", j.ID)
		}
		s.adm.adopt()
		s.queue <- j.ID
	}

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Store exposes the job store (the fault drills inspect it).
func (s *Service) Store() *Store { return s.store }

// Metrics exposes the server registry for embedding.
func (s *Service) Metrics() *obs.Registry { return s.met.reg }

// Handler returns the HTTP surface.
func (s *Service) Handler() http.Handler { return s.handler }

// worker pulls job ids until drain or kill.
func (s *Service) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.workCtx.Done():
			return
		case id := <-s.queue:
			s.runJobIsolated(id)
		}
	}
}

// runJobIsolated runs one job with panic isolation: a panic anywhere
// on the job path marks that job FAILED and the worker lives on.
func (s *Service) runJobIsolated(id string) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Printf("job %s: panic: %v\n%s", id, p, debug.Stack())
			s.finishJob(id, nil, 0, fmt.Errorf("panic: %v", p))
		}
	}()
	s.runJob(id)
}

// runJob executes one queued job end to end.
func (s *Service) runJob(id string) {
	job, ok := s.store.Get(id)
	if !ok || job.State != StateQueued {
		// Canceled (or otherwise moved on) while waiting in the queue.
		s.adm.release()
		return
	}
	s.adm.start()
	defer s.adm.finish()

	deadline := s.cfg.DefaultDeadline
	if d := job.Spec.DeadlineSeconds; d > 0 {
		deadline = time.Duration(d * float64(time.Second))
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	jobCtx, cancel := context.WithCancelCause(s.workCtx)
	s.registerCancel(id, cancel)
	defer s.unregisterCancel(id, cancel)
	runCtx, cancelTimeout := context.WithTimeout(jobCtx, deadline)
	defer cancelTimeout()

	if _, err := s.store.Update(id, func(j *Job) {
		now := time.Now().UTC()
		j.State = StateRunning
		j.StartedAt = &now
	}); err != nil {
		s.log.Printf("job %s: %v", id, err)
	}

	results, reused, err := s.execute(runCtx, job)
	if errors.Is(context.Cause(s.rootCtx), errKilled) {
		// Simulated SIGKILL: leave the store exactly as a real crash
		// would — still claiming the job is running.
		return
	}
	s.met.specsReused.Add(reused)
	s.finishJob(id, results, reused, err)
}

// execute resolves the job's configuration and runs its suite on the
// experiments orchestrator, checkpointing each finished spec into the
// job's manifest.
func (s *Service) execute(ctx context.Context, job Job) (results []core.Result, reused uint64, err error) {
	if s.runHook != nil {
		return s.runHook(ctx, job)
	}
	cfg, err := job.Spec.BuildConfig()
	if err != nil {
		// Admission validated the spec; reaching this means the store
		// carried a record from an incompatible deployment.
		return nil, 0, fmt.Errorf("stored spec no longer builds: %w", err)
	}
	manifest, err := experiments.LoadManifestFS(s.store.ManifestPath(job.ID), s.cfg.FS)
	if err != nil {
		return nil, 0, err
	}
	if q := manifest.Quarantined(); q != "" {
		s.log.Printf("job %s: checkpoint manifest was corrupt; quarantined as %s, re-running its specs", job.ID, q)
	}

	prog := s.trackProgress(job.ID)
	defer s.untrackProgress(job.ID)
	opt := experiments.Options{
		Instrs:      s.cfg.DefaultInstrs,
		Warmup:      s.cfg.DefaultWarmup,
		Benchmarks:  job.Benchmarks,
		Parallelism: s.cfg.JobParallelism,
		Seed:        job.Spec.Seed,
		Context:     ctx,
		Checkpoint:  manifest,
		Progress: func(retiredDelta uint64, now sim.Time) {
			prog.retired.Add(retiredDelta)
			prog.simTime.Store(int64(now))
		},
	}
	if job.Spec.Instrs > 0 {
		opt.Instrs = job.Spec.Instrs
	}
	if job.Spec.Warmup > 0 {
		opt.Warmup = job.Spec.Warmup
	}
	if s.cfg.WatchdogCycles > 0 {
		opt.Harden.WatchdogCycles = s.cfg.WatchdogCycles
		opt.Retries = 1 // watchdog and timeout aborts get one more try
	}
	runner, err := experiments.NewRunner(opt)
	if err != nil {
		return nil, 0, err
	}
	results, err = runner.RunBenches(cfg)
	reused = runner.Counts().Reused
	if serr := manifest.Save(); serr != nil {
		s.log.Printf("job %s: %v", job.ID, serr)
	}
	return results, reused, err
}

// finishJob records a job's terminal (or requeued) state and updates
// the counters. Each terminal counter is bumped inside the store update
// that sets its state, under the store's lock, so a reader who sees the
// state also sees it counted.
func (s *Service) finishJob(id string, results []core.Result, reused uint64, err error) {
	now := time.Now().UTC()
	switch {
	case err == nil:
		job, uerr := s.store.Update(id, func(j *Job) {
			s.met.completed.Add(1)
			j.State = StateDone
			j.FinishedAt = &now
			j.Results = results
			j.SpecsReused = reused
			j.Error = ""
			j.InstructionsRetired, j.SimTime = 0, 0
			for _, r := range results {
				j.InstructionsRetired += r.Instrs
				j.SimTime += r.Elapsed
			}
		})
		if uerr != nil {
			s.log.Printf("job %s: %v", id, uerr)
			return
		}
		s.met.observeJobSeconds(now.Sub(job.EnqueuedAt).Seconds())
		s.log.Printf("job %s: done (%d benchmarks, %d specs reused)", id, len(results), reused)
	case errors.Is(err, errDraining):
		// Drain: the manifest holds every finished spec; hand the job
		// back to the queue for the next daemon.
		if _, uerr := s.store.Update(id, func(j *Job) {
			j.State = StateQueued
			j.StartedAt = nil
		}); uerr != nil {
			s.log.Printf("job %s: %v", id, uerr)
		}
		s.log.Printf("job %s: checkpointed for drain; will resume on restart", id)
	case errors.Is(err, errCanceledByClient):
		if _, uerr := s.store.Update(id, func(j *Job) {
			s.met.canceled.Add(1)
			j.State = StateCanceled
			j.FinishedAt = &now
			j.Error = errCanceledByClient.Error()
		}); uerr != nil {
			s.log.Printf("job %s: %v", id, uerr)
		}
		s.log.Printf("job %s: canceled by client", id)
	default:
		msg := experiments.FirstLine(err)
		if errors.Is(err, context.DeadlineExceeded) {
			msg = "deadline exceeded: " + msg
		}
		if _, uerr := s.store.Update(id, func(j *Job) {
			s.met.failed.Add(1)
			j.State = StateFailed
			j.FinishedAt = &now
			j.Error = msg
		}); uerr != nil {
			s.log.Printf("job %s: %v", id, uerr)
		}
		s.log.Printf("job %s: failed: %s", id, msg)
	}
}

// Drain performs the graceful shutdown: stop admitting, cancel running
// jobs so they checkpoint and return to the queue, wait for the
// workers, and flush the store. The context bounds the wait; on expiry
// the daemon is considered degraded and the error says so.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainFn(errDraining)
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.store.Save()
	case <-ctx.Done():
		return fmt.Errorf("drain timed out: %w", context.Cause(ctx))
	}
}

// Kill simulates a SIGKILL for the fault drills: workers abandon their
// jobs without any store writes, leaving the state directory exactly
// as a real crash would — a job record still claiming it is running,
// the manifest holding whatever specs finished. It waits for the
// workers only so tests do not race the dying goroutines.
func (s *Service) Kill() {
	s.killFn(errKilled)
	s.workers.Wait()
}

// --- job progress registry ---

// jobProgress holds a running job's live counters, written from the
// simulation goroutine (via experiments.Options.Progress) and read by
// GET /jobs/{id} without touching the store.
type jobProgress struct {
	retired atomic.Uint64 // instructions retired, warmup included, all specs
	simTime atomic.Int64  // the current run's simulated clock, in sim.Time units
}

// trackProgress registers a live counter set for a starting job.
func (s *Service) trackProgress(id string) *jobProgress {
	p := &jobProgress{}
	s.progressMu.Lock()
	if s.progress == nil {
		s.progress = make(map[string]*jobProgress)
	}
	s.progress[id] = p
	s.progressMu.Unlock()
	return p
}

func (s *Service) untrackProgress(id string) {
	s.progressMu.Lock()
	delete(s.progress, id)
	s.progressMu.Unlock()
}

// progressFor returns the live counters of a running job, nil if none.
func (s *Service) progressFor(id string) *jobProgress {
	s.progressMu.Lock()
	defer s.progressMu.Unlock()
	return s.progress[id]
}

// --- job cancellation registry ---

// registerCancel exposes a running job's cancel to DELETE /jobs/{id}.
func (s *Service) registerCancel(id string, fn context.CancelCauseFunc) {
	s.cancelsMu.Lock()
	if s.cancels == nil {
		s.cancels = make(map[string]context.CancelCauseFunc)
	}
	s.cancels[id] = fn
	s.cancelsMu.Unlock()
}

func (s *Service) unregisterCancel(id string, fn context.CancelCauseFunc) {
	fn(nil)
	s.cancelsMu.Lock()
	delete(s.cancels, id)
	s.cancelsMu.Unlock()
}

// cancelRunning cancels a running job, reporting whether one was.
func (s *Service) cancelRunning(id string) bool {
	s.cancelsMu.Lock()
	fn, ok := s.cancels[id]
	s.cancelsMu.Unlock()
	if ok {
		fn(errCanceledByClient)
	}
	return ok
}

// --- HTTP surface ---

// routes builds the mux.
func (s *Service) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// clientKey identifies the submitter for rate limiting: an explicit
// X-Client-ID header, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeJSON sends v with the given status. An encode failure after the
// header is written can only be logged — the client is gone.
func (s *Service) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Printf("response encode: %v", err)
	}
}

// writeError sends a typed error body.
func (s *Service) writeError(w http.ResponseWriter, code int, e *apiError) {
	s.writeJSON(w, code, errorBody{Error: *e})
}

// Bounds on the Retry-After estimate. Before any job has completed
// there is no latency mean, so the estimate assumes
// retryAfterDefaultPerJob seconds per queued job — pessimistic enough
// that early clients back off meaningfully instead of hammering a
// cold daemon. A measured mean of zero (sub-second jobs truncate to
// it) gets the same treatment: the floor of retryAfterMinSeconds is
// the contract, never a degenerate 0 that a client would read as
// "retry immediately".
const (
	retryAfterDefaultPerJob = 5.0 // seconds per queued job with no latency mean yet
	retryAfterMinSeconds    = 1
	retryAfterMaxSeconds    = 120
)

// retryAfterSeconds estimates when a shed client should try again:
// the queue's expected drain time at the current depth, clamped to
// [retryAfterMinSeconds, retryAfterMaxSeconds].
func (s *Service) retryAfterSeconds() int {
	queued, running := s.adm.depths()
	perJob := retryAfterDefaultPerJob
	if avg, ok := s.met.jobSecondsAvg(); ok && avg > 0 {
		perJob = avg
	}
	est := perJob * float64(queued+running+1) / float64(s.cfg.Workers)
	switch {
	case est < retryAfterMinSeconds:
		return retryAfterMinSeconds
	case est > retryAfterMaxSeconds:
		return retryAfterMaxSeconds
	}
	return int(est)
}

// shed sends a load-shedding response: status, Retry-After, typed body.
func (s *Service) shed(w http.ResponseWriter, status int, code string, retryAfter int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	s.writeError(w, status, &apiError{Code: code, Message: msg})
}

// handleSubmit admits one job: drain gate, per-client rate limit, body
// decode and validation, watermark check, then persist + enqueue.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.met.shedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, codeDraining, 10, "daemon is draining; resubmit to its successor")
		return
	}
	client := clientKey(r)
	if ok, wait := s.limiter.allow(client, time.Now()); !ok {
		s.met.shedRate.Add(1)
		s.shed(w, http.StatusTooManyRequests, codeRateLimited,
			int(wait/time.Second)+1, fmt.Sprintf("client %q exceeded %g submissions/s", client, s.cfg.RatePerSec))
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	spec, status, aerr := decodeSpec(r.Body)
	if aerr != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, status, aerr)
		return
	}
	benches, err := spec.ResolveBenchmarks()
	if err != nil {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, &apiError{Code: codeInvalidSpec, Message: err.Error()})
		return
	}
	if spec.DeadlineSeconds < 0 {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, &apiError{Code: codeInvalidSpec, Message: "deadline_seconds must be >= 0"})
		return
	}
	if _, err := spec.BuildConfig(); err != nil {
		s.met.badRequests.Add(1)
		status, aerr := configAPIError(err)
		s.writeError(w, status, aerr)
		return
	}
	if cost := spec.Cost(s.cfg.DefaultInstrs, s.cfg.DefaultWarmup); cost > s.cfg.MaxJobCost {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, &apiError{
			Code:    codeJobTooLarge,
			Message: fmt.Sprintf("job simulates %d instructions; the server admits at most %d", cost, s.cfg.MaxJobCost),
		})
		return
	}

	if !s.adm.tryAdmit() {
		s.met.shedQueue.Add(1)
		s.shed(w, http.StatusTooManyRequests, codeOverloaded, s.retryAfterSeconds(),
			"queue is full; retry after the suggested delay")
		return
	}
	job, err := s.store.Create(spec, benches, client, time.Now())
	if err != nil {
		s.adm.release()
		s.writeError(w, http.StatusInternalServerError, &apiError{Code: "store_failed", Message: err.Error()})
		return
	}
	select {
	case s.queue <- job.ID:
	default:
		// Unreachable while the channel is sized past the watermark;
		// degrade by undoing the admission rather than wedging.
		s.adm.release()
		s.met.shedQueue.Add(1)
		s.shed(w, http.StatusTooManyRequests, codeOverloaded, s.retryAfterSeconds(), "queue is full")
		return
	}
	s.met.admitted.Add(1)
	w.Header().Set("Location", "/jobs/"+job.ID)
	s.writeJSON(w, http.StatusAccepted, job)
}

// handleList returns every job without its result payload.
func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.List()
	for i := range jobs {
		jobs[i].Results = nil
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleGet returns one job record.
func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, &apiError{Code: codeNotFound, Message: "no such job"})
		return
	}
	if job.State == StateRunning {
		if p := s.progressFor(job.ID); p != nil {
			job.InstructionsRetired = p.retired.Load()
			job.SimTime = sim.Time(p.simTime.Load())
		}
	}
	s.writeJSON(w, http.StatusOK, job)
}

// handleResult returns a finished job's measurements.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, &apiError{Code: codeNotFound, Message: "no such job"})
		return
	}
	if job.State != StateDone {
		s.writeError(w, http.StatusConflict, &apiError{
			Code:    codeNotReady,
			Message: fmt.Sprintf("job is %s", job.State),
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"id":         job.ID,
		"benchmarks": job.Benchmarks,
		"results":    job.Results,
	})
}

// handleArtifact renders a finished job as CSV (bench, IPC, L2 miss
// rate), the quick-look artifact for spreadsheets and plots.
func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	job, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, &apiError{Code: codeNotFound, Message: "no such job"})
		return
	}
	if job.State != StateDone {
		s.writeError(w, http.StatusConflict, &apiError{Code: codeNotReady, Message: fmt.Sprintf("job is %s", job.State)})
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"bench", "ipc", "l2_miss_rate"})
	for i, b := range job.Benchmarks {
		if i >= len(job.Results) {
			break
		}
		res := job.Results[i]
		_ = cw.Write([]string{
			b,
			strconv.FormatFloat(res.IPC, 'g', -1, 64),
			strconv.FormatFloat(res.L2MissRate(), 'g', -1, 64),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		s.log.Printf("artifact write: %v", err)
	}
}

// handleCancel cancels a queued or running job.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.store.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, &apiError{Code: codeNotFound, Message: "no such job"})
		return
	}
	if job.State.terminal() {
		s.writeError(w, http.StatusConflict, &apiError{
			Code:    codeConflict,
			Message: fmt.Sprintf("job already %s", job.State),
		})
		return
	}
	if s.cancelRunning(id) {
		// The worker records the canceled state when the run unwinds.
		s.writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": "canceling"})
		return
	}
	// Still queued: mark it canceled now (counted as finishJob counts,
	// before the state shows); the worker skips it on dequeue and
	// releases its admission slot.
	now := time.Now().UTC()
	job, err := s.store.Update(id, func(j *Job) {
		if j.State == StateQueued {
			s.met.canceled.Add(1)
			j.State = StateCanceled
			j.FinishedAt = &now
			j.Error = errCanceledByClient.Error()
		}
	})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, &apiError{Code: "store_failed", Message: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.met.writePrometheus(w); err != nil {
		s.log.Printf("metrics write: %v", err)
	}
}

// handleHealth reports liveness and queue posture.
func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	queued, running := s.adm.depths()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"queued":  queued,
		"running": running,
	})
}
