package server

import (
	"fmt"
	"time"

	"memsim/internal/core"
	"memsim/internal/harden"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// JobState is the lifecycle position of a submitted job.
//
//	queued ──► running ──► done
//	   │           │  ├──► failed
//	   │           │  └──► canceled
//	   └───────────┴──(daemon restart / drain)──► queued
//
// A running job interrupted by a drain or a crash returns to queued:
// the service manifest on disk holds every spec it finished, so the
// next execution reuses them and re-runs only what was in flight. The
// simulator is deterministic, which makes the resumed job's final
// results bit-identical to an uninterrupted run.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the request body of POST /jobs: a workload selection plus
// configuration overrides on one of the paper's preset systems. Every
// field is optional; the zero spec runs the base system over the full
// benchmark suite with the server's default budgets.
type JobSpec struct {
	// Preset selects the starting configuration: "base" (default) or
	// "tuned" (XOR mapping + tuned scheduled region prefetching).
	Preset string `json:"preset,omitempty"`
	// Benchmarks restricts the workload suite; empty means all 26.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Seed offsets every workload's deterministic seed.
	Seed uint64 `json:"seed,omitempty"`
	// SWPrefetch is another spelling of the software_prefetch config
	// knob: true emits and executes software prefetch instructions
	// (the Section 4.7 interaction study).
	SWPrefetch bool `json:"swpf,omitempty"`
	// Instrs and Warmup are the per-run instruction budgets; zero
	// takes the server defaults.
	Instrs uint64 `json:"instrs,omitempty"`
	Warmup uint64 `json:"warmup,omitempty"`
	// DeadlineSeconds bounds each execution's wall-clock time (a resumed
	// job gets a fresh deadline); zero takes the server default.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Config sets individual knobs of the preset configuration, keyed
	// by the JSON names of core.Knobs.
	Config core.Overrides `json:"config,omitempty"`
}

// BuildConfig materializes the spec's core.Config: preset, config
// knobs (core.Config.Apply), SWPrefetch, aggregated validation. A
// non-nil error is a *harden.ConfigError (for unknown presets, a plain
// error) suitable for a typed 4xx response.
func (sp *JobSpec) BuildConfig() (core.Config, error) {
	var cfg core.Config
	switch sp.Preset {
	case "", "base":
		cfg = core.Base()
	case "tuned":
		cfg = core.Tuned()
	default:
		return core.Config{}, fmt.Errorf(`preset %q: must be "base" or "tuned"`, sp.Preset)
	}
	cfg, err := cfg.Apply(sp.Config)
	cfg.SoftwarePrefetch = cfg.SoftwarePrefetch || sp.SWPrefetch
	var v harden.Validator
	v.Merge("", err)
	v.Merge("", cfg.Validate())
	if err := v.Err(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// ResolveBenchmarks returns the job's benchmark suite in run order,
// rejecting unknown names so admission fails fast instead of the
// worker pool discovering the problem later.
func (sp *JobSpec) ResolveBenchmarks() ([]string, error) {
	if len(sp.Benchmarks) == 0 {
		return workload.Names(), nil
	}
	for _, b := range sp.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return nil, err
		}
	}
	return append([]string(nil), sp.Benchmarks...), nil
}

// Cost is the job's admission-control weight: total simulated
// instructions across the suite. The server bounds it so a single
// request cannot monopolize the pool for hours.
func (sp *JobSpec) Cost(defaultInstrs, defaultWarmup uint64) uint64 {
	instrs, warmup := sp.Instrs, sp.Warmup
	if instrs == 0 {
		instrs = defaultInstrs
	}
	if warmup == 0 {
		warmup = defaultWarmup
	}
	n := uint64(len(sp.Benchmarks))
	if n == 0 {
		n = uint64(len(workload.Names()))
	}
	return (instrs + warmup) * n
}

// Job is one stored job record: the spec as admitted, its lifecycle
// state, and — once done — the per-benchmark results. Each record
// persists to its own file in the store (jobs/<id>.json) after every
// transition, so a killed daemon knows on restart exactly which jobs to
// re-adopt.
type Job struct {
	// ID is the external handle ("j000042"); Seq its allocation order,
	// which is also the re-adoption order after a restart.
	ID  string `json:"id"`
	Seq uint64 `json:"seq"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Spec is the request as admitted.
	Spec JobSpec `json:"spec"`
	// Benchmarks is the resolved suite, aligned with Results.
	Benchmarks []string `json:"benchmarks"`
	// Client identifies the submitter (rate-limit key), for operators.
	Client string `json:"client,omitempty"`
	// Timestamps of the lifecycle transitions.
	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Resumes counts how many times a restarted daemon re-adopted the
	// job after a crash or drain interrupted it.
	Resumes int `json:"resumes,omitempty"`
	// Error is the failure headline for failed/canceled jobs.
	Error string `json:"error,omitempty"`
	// Results holds the per-benchmark measurements once done.
	Results []core.Result `json:"results,omitempty"`
	// SpecsReused counts specs the final execution did not simulate
	// because the service manifest held them: finished by any earlier
	// job, on this daemon or an earlier one over the same state
	// directory (an interrupted run of this job included), or repeated
	// within the benchmark list.
	SpecsReused uint64 `json:"specs_reused,omitempty"`
	// InstructionsRetired and SimTime report simulation progress: while
	// the job runs, GET /jobs/{id} overlays the live counters (retired
	// instructions including warmup across all specs, and the current
	// run's simulated clock); once done they hold the measured totals
	// summed over the suite.
	InstructionsRetired uint64   `json:"instructions_retired,omitempty"`
	SimTime             sim.Time `json:"sim_time_ps,omitempty"`
}
