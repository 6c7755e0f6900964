package server

import (
	"fmt"
	"time"

	"memsim/internal/core"
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
// its per-spec checkpoint manifest survives on disk, so the next
// execution reuses every finished spec and re-runs only what was in
// flight. The simulator is deterministic, which makes the resumed
// job's final results bit-identical to an uninterrupted run.
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
	// SWPrefetch makes the generators emit software prefetch
	// instructions (the Section 4.7 interaction study).
	SWPrefetch bool `json:"swpf,omitempty"`
	// Instrs and Warmup are the per-run instruction budgets; zero
	// takes the server defaults.
	Instrs uint64 `json:"instrs,omitempty"`
	Warmup uint64 `json:"warmup,omitempty"`
	// DeadlineSeconds bounds each execution's wall-clock time (a resumed
	// job gets a fresh deadline); zero takes the server default.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Config overrides individual fields of the preset configuration.
	Config *ConfigOverrides `json:"config,omitempty"`
}

// ConfigOverrides is the JSON surface over core.Config: pointer fields
// so "absent" and "zero" are distinguishable. The resulting Config is
// still put through the aggregated core Config.Validate, so a job that
// admits always builds.
type ConfigOverrides struct {
	Mapping          *string `json:"mapping,omitempty"`           // "base", "swap", "xor"
	Interleaving     *string `json:"interleaving,omitempty"`      // "", "ganged", "independent"
	Channels         *int    `json:"channels,omitempty"`          // power of two
	ClosedPage       *bool   `json:"closed_page,omitempty"`       // row-buffer policy
	Refresh          *bool   `json:"refresh,omitempty"`           // model DRAM refresh
	ReorderWindow    *int    `json:"reorder_window,omitempty"`    // open-row-first issue window
	SchedPolicy      *string `json:"sched_policy,omitempty"`      // "fcfs", "frfcfs", "frfcfs-cap"
	BankTiming       *string `json:"bank_timing,omitempty"`       // "flat", "tiered", "rowreuse"
	Prefetch         *bool   `json:"prefetch,omitempty"`          // enable the tuned prefetch engine
	PrefetchScheme   *string `json:"prefetch_scheme,omitempty"`   // "region", "sequential", "stream"
	SoftwarePrefetch *bool   `json:"software_prefetch,omitempty"` // execute software prefetches
	L2SizeBytes      *int64  `json:"l2_size_bytes,omitempty"`
	L2BlockBytes     *int    `json:"l2_block_bytes,omitempty"`
}

// BuildConfig materializes the spec's core.Config: preset, then
// overrides, then the aggregated validation pass. A non-nil error is a
// *harden.ConfigError (for unknown presets, a plain error) suitable
// for a typed 4xx response.
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
	if o := sp.Config; o != nil {
		if o.Mapping != nil {
			cfg.Mapping = *o.Mapping
		}
		if o.Interleaving != nil {
			cfg.Interleaving = *o.Interleaving
		}
		if o.Channels != nil {
			cfg.Channels = *o.Channels
		}
		if o.ClosedPage != nil {
			cfg.ClosedPage = *o.ClosedPage
		}
		if o.Refresh != nil {
			cfg.Refresh = *o.Refresh
		}
		if o.ReorderWindow != nil {
			cfg.ReorderWindow = *o.ReorderWindow
		}
		if o.SchedPolicy != nil {
			cfg.SchedPolicy = *o.SchedPolicy
			// frfcfs-cap needs a scan bound; give it the tuned window
			// when the spec set none, so the one-field override works.
			if cfg.SchedPolicy == "frfcfs-cap" && cfg.ReorderWindow < 2 && o.ReorderWindow == nil {
				cfg.ReorderWindow = 8
			}
		}
		if o.BankTiming != nil {
			cfg.BankTiming = *o.BankTiming
		}
		if o.Prefetch != nil {
			if *o.Prefetch {
				cfg.Prefetch = core.TunedPrefetch()
			} else {
				cfg.Prefetch = core.PrefetchConfig{}
			}
		}
		if o.PrefetchScheme != nil {
			cfg.Prefetch.Scheme = *o.PrefetchScheme
			if !cfg.Prefetch.Enabled {
				cfg.Prefetch = core.TunedPrefetch()
				cfg.Prefetch.Scheme = *o.PrefetchScheme
			}
			if *o.PrefetchScheme == "sequential" || *o.PrefetchScheme == "stream" {
				cfg.Prefetch.Lookahead = 4
			}
		}
		if o.SoftwarePrefetch != nil {
			cfg.SoftwarePrefetch = *o.SoftwarePrefetch
		}
		if o.L2SizeBytes != nil {
			cfg.L2Size = *o.L2SizeBytes
		}
		if o.L2BlockBytes != nil {
			cfg.L2Block = *o.L2BlockBytes
		}
	}
	if err := cfg.Validate(); err != nil {
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
// state, and — once done — the per-benchmark results. Records persist
// in the store's jobs.json after every transition, so a killed daemon
// knows on restart exactly which jobs to re-adopt.
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
	// SpecsReused counts checkpointed specs the final execution reused
	// instead of re-simulating — nonzero exactly when a resume skipped
	// finished work.
	SpecsReused uint64 `json:"specs_reused,omitempty"`
	// InstructionsRetired and SimTime report simulation progress: while
	// the job runs, GET /jobs/{id} overlays the live counters (retired
	// instructions including warmup across all specs, and the current
	// run's simulated clock); once done they hold the measured totals
	// summed over the suite.
	InstructionsRetired uint64   `json:"instructions_retired,omitempty"`
	SimTime             sim.Time `json:"sim_time_ps,omitempty"`
}
