// Package memsim is a cycle-level simulator of the integrated memory
// hierarchy from "Reducing DRAM Latencies with an Integrated Memory
// Hierarchy Design" (Lin, Reinhardt & Burger, HPCA 2001): a trace-
// driven out-of-order core, split L1 caches, a large on-chip L2, an
// integrated memory controller with scheduled region prefetching, and
// a multi-channel Direct Rambus (DRDRAM) memory system with full
// bank/row-buffer timing.
//
// The package is a facade over the internal subsystem packages. A
// minimal run looks like:
//
//	cfg := memsim.TunedConfig()            // XOR mapping + tuned prefetcher
//	cfg.MaxInstrs = 1_000_000
//	cfg.WarmupInstrs = 1_500_000
//	gen, _ := memsim.Workload("swim", 0, cfg)
//	res, _ := memsim.Run(cfg, gen)
//	fmt.Printf("IPC %.3f, L2 miss rate %.1f%%\n", res.IPC, 100*res.L2MissRate())
//
// Workloads are deterministic synthetic stand-ins for the 26 SPEC
// CPU2000 benchmarks the paper evaluates (see DESIGN.md for the
// substitution rationale), and custom instruction streams can be
// supplied through the Generator interface or built from
// WorkloadParams.
package memsim

import (
	"context"
	"io"

	"memsim/internal/cache"
	"memsim/internal/core"
	"memsim/internal/dram"
	"memsim/internal/obs"
	"memsim/internal/prefetch"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

// Config describes a simulated system; see BaseConfig and TunedConfig
// for the paper's reference points.
type Config = core.Config

// PrefetchConfig tunes the scheduled region prefetch engine.
type PrefetchConfig = core.PrefetchConfig

// Result carries the measurements of one run.
type Result = core.Result

// HardenConfig tunes the robustness layer: the forward-progress
// watchdog and the paranoid cross-layer invariant checker. The zero
// value disables both.
type HardenConfig = core.HardenConfig

// ObsConfig selects the observability instruments a run carries
// (metrics registry, event tracer, timeline sampling); set it on
// Config.Obs. The zero value disables them all.
type ObsConfig = obs.Config

// Observer bundles a run's observability instruments; retrieve it with
// System.Obs after a run to export metrics, traces, and timelines.
type Observer = obs.Observer

// System is a fully wired simulated machine. Most callers use Run;
// build one explicitly with NewSystem when post-run access to the
// system (observability export, metric deltas) is needed.
type System = core.System

// NewSystem builds a system without running it. Run it once with
// System.Run or System.RunContext, then harvest results and
// observability output.
func NewSystem(cfg Config, gen Generator) (*System, error) { return core.New(cfg, gen) }

// Op is one instruction-stream element: a memory operation preceded by
// a count of non-memory instructions.
type Op = trace.Op

// Memory operation kinds.
const (
	Load       = trace.Load
	Store      = trace.Store
	SWPrefetch = trace.SWPrefetch
)

// Generator produces an instruction stream.
type Generator = trace.Generator

// WorkloadParams are the knobs of the synthetic workload generator.
type WorkloadParams = workload.Params

// Profile is a named, calibrated benchmark configuration.
type Profile = workload.Profile

// Region prefetch prioritization policies (Section 4.2).
const (
	FIFO = prefetch.FIFO
	LIFO = prefetch.LIFO
)

// L2 insertion priorities for prefetched blocks (Section 4.1).
const (
	InsertMRU  = cache.MRU
	InsertSMRU = cache.SMRU
	InsertSLRU = cache.SLRU
	InsertLRU  = cache.LRU
)

// DRDRAM timing parts (Section 4.6).
var (
	Part800x40 = dram.Part800x40
	Part800x50 = dram.Part800x50
	Part800x34 = dram.Part800x34
)

// BaseConfig returns the paper's base system (Section 3.1): 1.6 GHz
// 4-wide core, 64KB L1, 1MB 4-way L2 with 64-byte blocks, four DRDRAM
// channels, straightforward address mapping, no prefetching.
func BaseConfig() Config { return core.Base() }

// TunedConfig returns the paper's best system: the base configuration
// with the XOR address mapping and tuned scheduled region prefetching
// (4KB regions, LIFO prioritization, bank-aware scheduling, LRU
// insertion).
func TunedConfig() Config { return core.Tuned() }

// TunedPrefetch returns the Section 4 tuned prefetch configuration by
// itself, for composing with a custom Config.
func TunedPrefetch() PrefetchConfig { return core.TunedPrefetch() }

// Run simulates gen on cfg to completion.
func Run(cfg Config, gen Generator) (Result, error) {
	return RunContext(context.Background(), cfg, gen)
}

// RunContext simulates gen on cfg under a context: cancellation and
// deadlines are polled at event-loop granularity, so a wedged or
// oversized run can be stopped by a per-run timeout or a SIGINT-driven
// cancel. The returned error wraps context.Cause(ctx).
func RunContext(ctx context.Context, cfg Config, gen Generator) (Result, error) {
	sys, err := core.New(cfg, gen)
	if err != nil {
		return Result{}, err
	}
	return sys.RunContext(ctx)
}

// Benchmarks lists the 26 synthetic SPEC CPU2000 stand-in workloads in
// suite order.
func Benchmarks() []string { return workload.Names() }

// Profiles returns all calibrated benchmark profiles.
func Profiles() []Profile { return workload.Profiles() }

// Workload builds the named benchmark's instruction stream for a run on
// cfg. seed selects an independent sample. The stream carries software
// prefetch instructions only when cfg.SoftwarePrefetch is set, the
// setting that also makes the system execute them (the paper's
// simulator discards them by default).
func Workload(name string, seed uint64, cfg Config) (Generator, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generator(seed, cfg.SoftwarePrefetch)
}

// CustomWorkload builds an instruction stream from explicit parameters
// for a run on cfg; software prefetches follow cfg.SoftwarePrefetch as
// in Workload.
func CustomWorkload(params WorkloadParams, seed uint64, cfg Config) (Generator, error) {
	return workload.NewGenerator(params, seed, cfg.SoftwarePrefetch)
}

// Trace replays a fixed sequence of operations; it is the simplest way
// to drive the simulator with a hand-built or captured stream.
func Trace(ops []Op) Generator { return trace.NewSlice(ops) }

// WriteTraceFile captures up to n operations from gen into w using the
// compact binary trace format (see cmd/tracegen). It reports how many
// operations were written.
func WriteTraceFile(w io.Writer, gen Generator, n uint64) (uint64, error) {
	return trace.WriteFile(w, gen, n)
}

// ReadTraceFile replays a trace captured by WriteTraceFile.
func ReadTraceFile(r io.Reader) (Generator, error) {
	return trace.NewFileReader(r)
}

// RunBenchmark is a convenience wrapper: simulate the named benchmark
// on cfg.
func RunBenchmark(cfg Config, name string) (Result, error) {
	gen, err := Workload(name, 0, cfg)
	if err != nil {
		return Result{}, err
	}
	return Run(cfg, gen)
}
