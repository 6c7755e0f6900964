// Package experiments regenerates every table and figure of the
// paper's evaluation on the simulated system: block-size and
// channel-width sweeps (Tables 1-2), address-mapping row-buffer study
// (Figure 3 / Section 3.4), prefetch insertion-priority and scheduling
// comparisons (Tables 3-4), the tuned-prefetch performance summary
// (Figure 5), channel utilization (Section 4.4), cache-size scaling
// (Section 4.5), DRAM latency sensitivity (Section 4.6), software
// prefetching interaction (Section 4.7), and ablations of the design
// choices (region size, queue depth, accuracy throttling).
//
// Runs use synthetic benchmark profiles in place of SPEC CPU2000 (see
// DESIGN.md); shapes, orderings, and win/loss structure are the
// reproduction targets, not absolute values.
//
// The batch layer is a resilient orchestrator (DESIGN.md §8): every
// spec runs on a fixed worker pool under the batch context, with
// per-run panic recovery, per-run wall-clock deadlines, bounded retry
// with backoff for watchdog and timeout aborts, and a result manifest
// through which every spec resolves, so each distinct spec runs once
// and, with the manifest on disk, an interrupted batch resumes without
// re-running finished specs. Each artifact lists its configurations
// once and resolves them all through one RunBenches batch. With
// KeepGoing set, a failed spec marks its cells FAILED instead of
// discarding the whole artifact.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"memsim/internal/core"
	"memsim/internal/obs"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// Options configures a Runner.
type Options struct {
	// Instrs is the measured instruction budget per run.
	Instrs uint64
	// Warmup instructions run before measurement (caches and row
	// buffers reach steady state).
	Warmup uint64
	// Benchmarks restricts the suite; empty means all 26 profiles.
	Benchmarks []string
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
	// Seed offsets every workload's deterministic seed, selecting an
	// independent sample.
	Seed uint64
	// Harden applies the robustness layer (watchdog, paranoid
	// invariant checking) to every run in the batch.
	Harden core.HardenConfig
	// Obs arms the observability instruments on every run. With Metrics
	// set, each completed run's warmup-adjusted metric deltas are
	// captured and stored in its manifest entry. Tracing is possible
	// but rarely useful in batches (the ring is discarded after
	// harvesting).
	Obs obs.Config

	// Context cancels the whole batch: in-flight runs stop at event-loop
	// granularity, queued specs are never started, and the batch returns
	// the cancellation cause. Nil means context.Background().
	Context context.Context
	// TimeoutPerRun bounds each simulation's wall-clock time; an
	// overrunning spec aborts with context.DeadlineExceeded and is
	// eligible for retry. Zero disables the deadline.
	TimeoutPerRun time.Duration
	// Retries is how many extra attempts a run aborted by TimeoutPerRun
	// gets before it counts as failed. Other failures (watchdog aborts,
	// config errors, corruption, panics) are deterministic and never
	// retried.
	Retries int
	// RetryBackoff is the pause before the first retry, doubling per
	// subsequent attempt; zero retries immediately.
	RetryBackoff time.Duration
	// KeepGoing degrades instead of aborting: when some (but not all)
	// specs of a batch fail, their cells render as FAILED, the failures
	// are recorded for the artifact's DEGRADED section, and the batch
	// returns the surviving results with a nil error.
	KeepGoing bool
	// Checkpoint holds every completed run keyed by spec hash, so no
	// spec is simulated twice, and on disk a resumed batch skips work an
	// earlier invocation finished. Nil means a fresh in-memory manifest.
	Checkpoint *Manifest

	// Progress, when non-nil, receives coarse progress from every
	// in-flight simulation: the instructions retired since the last
	// report of that run, and the run's current simulated time. Reports
	// arrive from worker goroutines concurrently; the callback must be
	// safe for that (cmd/memsimd aggregates with atomics). It is an
	// observation hook only and must not block.
	Progress func(retiredDelta uint64, now sim.Time)

	// failFor, when non-nil, fails each attempt of a spec it returns an
	// error for, before simulating. It exists for the orchestrator
	// tests, which need a deterministic mid-batch failure; production
	// batches keep it nil.
	failFor func(sp spec) error
}

// Defaults returns the options used by cmd/experiments: half a million
// measured instructions after 1.5 million of warmup. The warmup is
// sized so the 1MB L2 reaches eviction steady state even on the
// lowest-miss-intensity benchmarks before measurement begins.
func Defaults() Options {
	return Options{Instrs: 500_000, Warmup: 1_500_000}
}

// Runner executes simulation batches.
type Runner struct {
	opt Options

	// Orchestration bookkeeping, shared by the worker pool.
	completed atomic.Uint64
	reused    atomic.Uint64
	retried   atomic.Uint64
	failed    atomic.Uint64

	mu       sync.Mutex
	failures []RunFailure
}

// NewRunner validates opt and returns a Runner.
func NewRunner(opt Options) (*Runner, error) {
	if opt.Instrs == 0 {
		return nil, fmt.Errorf("experiments: zero instruction budget")
	}
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = workload.Names()
	}
	for _, b := range opt.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return nil, err
		}
	}
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opt.Retries < 0 {
		return nil, fmt.Errorf("experiments: negative retry budget %d", opt.Retries)
	}
	if opt.Checkpoint == nil {
		opt.Checkpoint = &Manifest{entries: make(map[string]*ManifestEntry)}
	}
	return &Runner{opt: opt}, nil
}

// Benchmarks reports the active suite.
func (r *Runner) Benchmarks() []string { return r.opt.Benchmarks }

// Counts is a snapshot of the orchestrator's run accounting.
type Counts struct {
	// Completed counts simulations that ran to completion here.
	Completed uint64
	// Reused counts specs satisfied without simulating: repeats of a
	// spec this runner already ran and specs a loaded checkpoint held.
	Reused uint64
	// Retried counts re-attempts after per-run timeout aborts.
	Retried uint64
	// Failed counts specs that exhausted their attempts in a KeepGoing
	// batch and were recorded as FAILED cells.
	Failed uint64
}

// Counts reports the orchestrator's accounting so far.
func (r *Runner) Counts() Counts {
	return Counts{
		Completed: r.completed.Load(),
		Reused:    r.reused.Load(),
		Retried:   r.retried.Load(),
		Failed:    r.failed.Load(),
	}
}

// RunFailure records one spec that exhausted its attempts in a
// KeepGoing batch.
type RunFailure struct {
	// Bench is the workload of the failed spec.
	Bench string
	// Key is the spec's checkpoint hash, identifying the exact
	// configuration among a bench's many runs.
	Key string
	// Attempts is how many times the spec was tried.
	Attempts int
	// Err is the joined error of every attempt.
	Err error
}

// DrainFailures returns the failures recorded since the last drain and
// clears the list. The registry drains after each artifact so every
// DEGRADED section lists only its own experiment's losses.
func (r *Runner) DrainFailures() []RunFailure {
	r.mu.Lock()
	defer r.mu.Unlock()
	fs := r.failures
	r.failures = nil
	return fs
}

func (r *Runner) recordFailure(f RunFailure) {
	r.failed.Add(1)
	r.mu.Lock()
	r.failures = append(r.failures, f)
	r.mu.Unlock()
}

// ctx returns the batch context.
func (r *Runner) ctx() context.Context {
	if r.opt.Context != nil {
		return r.opt.Context
	}
	return context.Background()
}

// spec is one simulation to run.
type spec struct {
	bench string
	cfg   core.Config
}

// specConfig is the configuration a spec actually runs with: budgets
// and hardening from Options override the spec's.
func (r *Runner) specConfig(sp spec) core.Config {
	cfg := sp.cfg
	cfg.MaxInstrs = r.opt.Instrs
	cfg.WarmupInstrs = r.opt.Warmup
	cfg.Harden = r.opt.Harden
	cfg.Obs = r.opt.Obs
	return cfg
}

// specKey is the spec's checkpoint identity: a hash of everything that
// determines its result.
func (r *Runner) specKey(sp spec) string {
	return SpecKey(sp.bench, r.opt.Seed, r.specConfig(sp))
}

// failedResult marks a lost cell: the IPC — the metric every artifact
// reads — is NaN, which the aggregations skip and the renderers print
// as FAILED or NaN.
func failedResult() core.Result { return core.Result{IPC: math.NaN()} }

// runAll executes the specs on a fixed pool of Parallelism worker
// goroutines and returns results in spec order, so thousand-spec
// sweeps never park a goroutine per spec. Specs that repeat an earlier
// spec's key are not dispatched: they take that spec's outcome. Failures
// aggregate with errors.Join rather than first-error-wins; under
// KeepGoing a partial failure degrades (FAILED cells, nil error)
// instead of aborting.
func (r *Runner) runAll(specs []spec) ([]core.Result, error) {
	ctx := r.ctx()
	results := make([]core.Result, len(specs))
	errs := make([]error, len(specs))
	attempts := make([]int, len(specs))
	keys := make([]string, len(specs))
	first := make(map[string]int, len(specs)) // the spec that runs each key
	for i := len(specs) - 1; i >= 0; i-- {
		keys[i] = r.specKey(specs[i])
		first[keys[i]] = i
	}

	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.opt.Parallelism, len(first)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				results[i], attempts[i], errs[i] = r.runSpec(ctx, specs[i], keys[i])
			}
		}()
	}
feeding:
	for i := range specs {
		if first[keys[i]] != i {
			continue
		}
		select {
		case feed <- i:
		case <-ctx.Done():
			// Specs from i on were never handed to a worker.
			for j := i; j < len(specs); j++ {
				errs[j] = context.Cause(ctx)
			}
			break feeding
		}
	}
	close(feed)
	wg.Wait()
	for i, key := range keys {
		if j := first[key]; j != i {
			results[i], attempts[i], errs[i] = results[j], attempts[j], errs[j]
			if errs[i] == nil {
				r.reused.Add(1)
			}
		}
	}

	var failures []error
	nfailed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		nfailed++
		failures = append(failures, fmt.Errorf("%s [%s]: %w", specs[i].bench, keys[i], err))
	}
	if nfailed == 0 {
		return results, nil
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("experiments: batch canceled: %w", context.Cause(ctx))
	}
	if !r.opt.KeepGoing || nfailed == len(specs) {
		return nil, fmt.Errorf("experiments: %d of %d runs failed: %w",
			nfailed, len(specs), errors.Join(failures...))
	}
	// Degraded: keep the survivors, mark the losses.
	for i, err := range errs {
		if err != nil {
			results[i] = failedResult()
			r.recordFailure(RunFailure{
				Bench:    specs[i].bench,
				Key:      keys[i],
				Attempts: attempts[i],
				Err:      err,
			})
		}
	}
	return results, nil
}

// runSpec resolves one spec: from the manifest when it holds the key,
// else by simulating with the retry policy and recording the result.
// It reports how many attempts ran.
func (r *Runner) runSpec(ctx context.Context, sp spec, key string) (core.Result, int, error) {
	if res, ok := r.opt.Checkpoint.Lookup(key); ok {
		r.reused.Add(1)
		return res, 0, nil
	}
	var errs []error
	for attempt := 1; ; attempt++ {
		res, metrics, err := r.runOnce(ctx, sp)
		if err == nil {
			r.completed.Add(1)
			// A checkpoint that cannot be written must not kill the
			// batch; the manifest remembers the error for Save.
			_ = r.opt.Checkpoint.Record(key, sp.bench, res, metrics)
			return res, attempt, nil
		}
		errs = append(errs, err)
		if ctx.Err() != nil || attempt > r.opt.Retries || !Retryable(err) {
			return core.Result{}, attempt, errors.Join(errs...)
		}
		r.retried.Add(1)
		if !sleepCtx(ctx, retryDelay(r.opt.RetryBackoff, attempt)) {
			return core.Result{}, attempt, errors.Join(append(errs, context.Cause(ctx))...)
		}
	}
}

// runOnce executes a single simulation attempt under the per-run
// deadline, converting any panic on the path (workload construction,
// system assembly, result extraction) into an error so one poisoned
// spec cannot take down the worker pool. With metrics armed it also
// harvests the run's warmup-adjusted metric deltas.
func (r *Runner) runOnce(ctx context.Context, sp spec) (res core.Result, metrics map[string]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, metrics, err = core.Result{}, nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if d := r.opt.TimeoutPerRun; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if r.opt.failFor != nil {
		if err := r.opt.failFor(sp); err != nil {
			return core.Result{}, nil, err
		}
	}
	p, err := workload.ByName(sp.bench)
	if err != nil {
		return core.Result{}, nil, err
	}
	gen, err := p.Generator(r.opt.Seed, sp.cfg.SoftwarePrefetch)
	if err != nil {
		return core.Result{}, nil, err
	}
	sys, err := core.New(r.specConfig(sp), gen)
	if err != nil {
		return core.Result{}, nil, err
	}
	if r.opt.Progress != nil {
		// Delta accounting is per run: each report carries only the
		// instructions retired since the previous one, so concurrent
		// runs sum cleanly on the receiver's side.
		var prev uint64
		sys.OnProgress = func(retired uint64, now sim.Time) {
			r.opt.Progress(retired-prev, now)
			prev = retired
		}
	}
	res, err = sys.RunContext(ctx)
	if err != nil {
		return core.Result{}, nil, err
	}
	return res, sys.ObsMetricsDelta(), nil
}

// Retryable reports whether a run failure is worth re-attempting: only
// a per-run wall-clock timeout, which depends on host load. Every other
// failure is deterministic and recurs on a retry: a watchdog abort
// fires at the same simulated time and progress each attempt, and so
// do config rejections, invariant violations, corruption and panics.
// Batch cancellation is never retried.
func Retryable(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// maxRetryDelay caps the exponential backoff.
const maxRetryDelay = 30 * time.Second

// retryDelay is the backoff before the attempt'th retry (1-based).
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << (attempt - 1)
	if d <= 0 || d > maxRetryDelay {
		return maxRetryDelay
	}
	return d
}

// sleepCtx pauses for d, reporting false if the context was canceled
// first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// RunBenches runs each configuration across the active benchmark suite
// as one batch and returns one result slice per configuration, each in
// suite order. Every artifact lists its configurations once and
// resolves them here, so the batch — and under KeepGoing the
// all-failed rule and the joined error — covers the whole artifact.
// cmd/memsimd jobs and cmd/sweep points pass one configuration. All of
// them share the worker pool, manifest reuse, retry policy, and
// cancellation plumbing, so a daemon restart resumes a half-finished
// job from its manifest exactly like `experiments -resume` resumes a
// batch.
func (r *Runner) RunBenches(cfgs ...core.Config) ([][]core.Result, error) {
	nb := len(r.opt.Benchmarks)
	specs := make([]spec, 0, len(cfgs)*nb)
	for _, cfg := range cfgs {
		for _, b := range r.opt.Benchmarks {
			specs = append(specs, spec{bench: b, cfg: cfg})
		}
	}
	results, err := r.runAll(specs)
	if err != nil {
		return nil, err
	}
	out := make([][]core.Result, len(cfgs))
	for i := range out {
		out[i] = results[i*nb : (i+1)*nb : (i+1)*nb]
	}
	return out, nil
}

// ipcs extracts the IPC column.
func ipcs(results []core.Result) []float64 {
	out := make([]float64, len(results))
	for i, res := range results {
		out[i] = res.IPC
	}
	return out
}
