// Package server is memsim-as-a-service: a crash-safe HTTP daemon
// (cmd/memsimd) that accepts simulation jobs as JSON, runs them on the
// experiments worker pool, and serves status, results, artifacts, and
// Prometheus metrics by job id. Every job resolves its specs through
// one service manifest, so a spec that any earlier job or earlier
// daemon on the state directory finished is reused, not simulated.
//
// The robustness contract, in order of importance:
//
//   - Crash safety. Every job transition persists that job's own
//     record file (jobs/<id>.json) and every finished spec its record
//     in the service manifest (specs.manifest.json/<key>.json), both
//     written atomically. A killed daemon restarted over the same state
//     directory re-adopts interrupted jobs, which reuse the specs they
//     finished; because the simulator is deterministic, the resumed
//     results are bit-identical to an uninterrupted run.
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
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memsim/internal/core"
	"memsim/internal/experiments"
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
	// StateDir holds the job records (jobs/<id>.json) and the service
	// manifest of finished specs (specs.manifest.json/<key>.json).
	StateDir string
	// Workers bounds concurrently executing jobs (default 2).
	Workers int
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
	// WatchdogCycles arms the forward-progress watchdog on every run
	// (default 5M core cycles; <0 disables).
	WatchdogCycles int64
	// FS is the filesystem the store and the service manifest persist
	// on (default vfs.OS); the chaos explorer substitutes a
	// fault-injecting one.
	FS vfs.FS
	// Logger receives operational messages; nil logs to stderr.
	Logger *log.Logger

	// runHook replaces the simulation path in tests that need a
	// deterministic slow, failing, or panicking job. Always nil in
	// production (unexported: only in-package tests can set it).
	runHook func(ctx context.Context, job Job) ([]core.Result, uint64, error)
}

// Fixed service limits.
const (
	// jobParallelism is the per-job worker pool width: concurrency
	// comes from running jobs, not from inside them.
	jobParallelism = 1
	// maxJobCost bounds (instrs+warmup)×benchmarks per job, in
	// simulated instructions.
	maxJobCost = 500_000_000
	// defaultDeadline bounds a job execution's wall-clock time when the
	// spec names none; maxDeadline caps what a spec may ask for.
	defaultDeadline = 15 * time.Minute
	maxDeadline     = time.Hour
	// maxBodyBytes bounds a submission body.
	maxBodyBytes = 1 << 20
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	def := experiments.Defaults()
	if c.Workers <= 0 {
		c.Workers = 2
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
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = 5_000_000
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "memsimd: ", log.LstdFlags)
	}
	return c
}

// specManifest names the service manifest's record directory inside
// the state directory.
const specManifest = "specs.manifest.json"

// Service is one daemon instance over a state directory.
type Service struct {
	cfg      Config
	log      *log.Logger
	store    *Store
	manifest *experiments.Manifest // every spec any job finished
	adm      *admission
	limiter  *rateLimiter
	met      *metrics
	queue    chan string

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

	runningMu sync.Mutex
	running   map[string]*runningJob

	handler http.Handler
	runHook func(ctx context.Context, job Job) ([]core.Result, uint64, error)
}

// New opens the state directory (job store and service manifest),
// re-adopts every interrupted job, and starts the worker pool. The
// returned service is already executing; attach Handler to an
// http.Server to accept requests.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	store, err := OpenStoreFS(cfg.StateDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	if q := store.Quarantined(); q != "" {
		cfg.Logger.Printf("job store held corrupt data; quarantined as %s, every other record loaded", q)
	}
	manifest, err := experiments.OpenManifest(cfg.FS, filepath.Join(cfg.StateDir, specManifest))
	if err != nil {
		return nil, err
	}
	if q := manifest.Quarantined(); q != "" {
		cfg.Logger.Printf("spec manifest held corrupt records; quarantined as %s, their specs run again", q)
	}

	adm := newAdmission(cfg.QueueDepth)
	pending := store.Pending()
	s := &Service{
		cfg:      cfg,
		log:      cfg.Logger,
		store:    store,
		manifest: manifest,
		adm:      adm,
		limiter:  newRateLimiter(cfg.RatePerSec, cfg.Burst),
		met:      newMetrics(adm),
		queue:    make(chan string, cfg.QueueDepth+cfg.Workers+len(pending)),
		running:  make(map[string]*runningJob),
		runHook:  cfg.runHook,
	}
	s.rootCtx, s.killFn = context.WithCancelCause(context.Background())
	s.workCtx, s.drainFn = context.WithCancelCause(s.rootCtx)
	s.handler = s.routes()

	// Re-adopt interrupted work in allocation order: running jobs go
	// back to queued (the service manifest holds their finished specs),
	// queued jobs simply re-enter the queue. Adoption bypasses the
	// admission watermark — these jobs were admitted in a previous life.
	for _, j := range pending {
		s.foldLegacyManifest(j.ID)
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

// foldLegacyManifest folds the per-job manifest an older daemon kept
// for job id, job-<id>.manifest.json in its single-file or directory
// form, into the service manifest, so the re-adopted job reuses the
// specs it finished. The old manifest stays where it lies: folding it
// again after a crash skips the keys already folded. A manifest that
// cannot be read or folded is logged, and the job simulates those
// specs again.
func (s *Service) foldLegacyManifest(id string) {
	path := filepath.Join(s.cfg.StateDir, "job-"+id+".manifest.json")
	_, err := s.cfg.FS.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		// recdir.Open moves a single file here first while importing it.
		_, err = s.cfg.FS.Stat(path + ".import")
	}
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	legacy, err := experiments.OpenManifest(s.cfg.FS, path)
	if err == nil {
		if q := legacy.Quarantined(); q != "" {
			s.log.Printf("job %s: legacy manifest held corrupt records; quarantined as %s", id, q)
		}
		err = s.manifest.Fold(legacy)
	}
	if err != nil {
		s.log.Printf("job %s: legacy manifest %s not folded, its specs run again: %v", id, path, err)
	}
}

// Store exposes the job store (the fault drills inspect it).
func (s *Service) Store() *Store { return s.store }

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

	deadline := defaultDeadline
	if d := job.Spec.DeadlineSeconds; d > 0 {
		deadline = min(time.Duration(d*float64(time.Second)), maxDeadline)
	}
	jobCtx, cancel := context.WithCancelCause(s.workCtx)
	rj := s.startRunning(id, cancel)
	defer s.stopRunning(id, rj)
	runCtx, cancelTimeout := context.WithTimeout(jobCtx, deadline)
	defer cancelTimeout()

	if _, err := s.store.Update(id, func(j *Job) {
		now := time.Now().UTC()
		j.State = StateRunning
		j.StartedAt = &now
	}); err != nil {
		s.log.Printf("job %s: %v", id, err)
	}

	results, reused, err := s.execute(runCtx, job, rj)
	if errors.Is(context.Cause(s.rootCtx), errKilled) {
		// Simulated SIGKILL: leave the store exactly as a real crash
		// would — still claiming the job is running.
		return
	}
	s.met.specsReused.Add(reused)
	s.finishJob(id, results, reused, err)
}

// execute resolves the job's configuration and runs its suite on the
// experiments orchestrator through the service manifest: a spec any
// earlier job finished is a lookup, and each spec this job simulates
// is recorded there. The run's progress goes to rj's counters.
func (s *Service) execute(ctx context.Context, job Job, rj *runningJob) (results []core.Result, reused uint64, err error) {
	if s.runHook != nil {
		return s.runHook(ctx, job)
	}
	cfg, err := job.Spec.BuildConfig()
	if err != nil {
		// Admission validated the spec; reaching this means the store
		// carried a record from an incompatible deployment.
		return nil, 0, fmt.Errorf("stored spec no longer builds: %w", err)
	}
	opt := experiments.Options{
		Instrs:      s.cfg.DefaultInstrs,
		Warmup:      s.cfg.DefaultWarmup,
		Benchmarks:  job.Benchmarks,
		Parallelism: jobParallelism,
		Seed:        job.Spec.Seed,
		Context:     ctx,
		Checkpoint:  s.manifest,
		Progress: func(retiredDelta uint64, now sim.Time) {
			rj.retired.Add(retiredDelta)
			rj.simTime.Store(int64(now))
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
	}
	runner, err := experiments.NewRunner(opt)
	if err != nil {
		return nil, 0, err
	}
	all, err := runner.RunBenches(cfg)
	if err == nil {
		results = all[0]
	}
	reused = runner.Counts().Reused
	if serr := s.manifest.Save(); serr != nil {
		s.log.Printf("job %s: spec manifest: %v", job.ID, serr)
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
		_, uerr := s.store.Update(id, func(j *Job) {
			s.met.completed.Add(1)
			s.met.observeJobSeconds(now.Sub(j.EnqueuedAt).Seconds())
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
		s.log.Printf("job %s: done (%d benchmarks, %d specs reused)", id, len(results), reused)
	case errors.Is(err, errDraining):
		// Drain: the service manifest holds every finished spec; hand
		// the job back to the queue for the next daemon.
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
// the service manifest holding whatever specs finished. It waits for the
// workers only so tests do not race the dying goroutines.
func (s *Service) Kill() {
	s.killFn(errKilled)
	s.workers.Wait()
}

// --- running-job registry ---

// runningJob is a running job's entry: its cancel, for DELETE
// /jobs/{id}, and its live counters, written from the simulation
// goroutine (via experiments.Options.Progress) and read by GET
// /jobs/{id} without touching the store.
type runningJob struct {
	cancel  context.CancelCauseFunc
	retired atomic.Uint64 // instructions retired, warmup included, all specs
	simTime atomic.Int64  // the current run's simulated clock, in sim.Time units
}

// startRunning registers a starting job under id.
func (s *Service) startRunning(id string, cancel context.CancelCauseFunc) *runningJob {
	rj := &runningJob{cancel: cancel}
	s.runningMu.Lock()
	s.running[id] = rj
	s.runningMu.Unlock()
	return rj
}

// stopRunning releases a finished job's context and drops its entry.
func (s *Service) stopRunning(id string, rj *runningJob) {
	rj.cancel(nil)
	s.runningMu.Lock()
	delete(s.running, id)
	s.runningMu.Unlock()
}

// runningFor returns a running job's entry, nil if none.
func (s *Service) runningFor(id string) *runningJob {
	s.runningMu.Lock()
	defer s.runningMu.Unlock()
	return s.running[id]
}

// cancelRunning cancels a running job, reporting whether one was.
func (s *Service) cancelRunning(id string) bool {
	rj := s.runningFor(id)
	if rj != nil {
		rj.cancel(errCanceledByClient)
	}
	return rj != nil
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

	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
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
	if cost := spec.Cost(s.cfg.DefaultInstrs, s.cfg.DefaultWarmup); cost > maxJobCost {
		s.met.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, &apiError{
			Code:    codeJobTooLarge,
			Message: fmt.Sprintf("job simulates %d instructions; the server admits at most %d", cost, maxJobCost),
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
		if rj := s.runningFor(job.ID); rj != nil {
			job.InstructionsRetired = rj.retired.Load()
			job.SimTime = sim.Time(rj.simTime.Load())
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
