// Package core assembles the complete simulated system of the paper:
// a trace-driven out-of-order core, split L1, a large on-chip L2, the
// integrated memory controller with the scheduled region prefetch
// engine, and a multi-channel Direct Rambus memory system.
package core

import (
	"math"

	"memsim/internal/addrmap"
	"memsim/internal/cache"
	"memsim/internal/dram"
	"memsim/internal/harden"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
)

// PrefetchConfig enables and tunes the prefetch engine.
type PrefetchConfig struct {
	// Enabled turns prefetching on.
	Enabled bool
	// Scheme selects the address-generation scheme: "region" (the
	// paper's contribution, default), "sequential" (Smith-style
	// next-N-blocks), or "stream" (stride-directed stream buffers in
	// the style of the Section 5 related work). All schemes sit behind
	// the same scheduling and insertion machinery.
	Scheme string
	// Lookahead is the prefetch depth in blocks for the sequential and
	// stream schemes.
	Lookahead int
	// TableSize is the stream scheme's stream-table size.
	TableSize int
	// RegionBytes is the prefetch region size (4KB in the tuned system).
	RegionBytes int
	// QueueDepth is the number of region entries.
	QueueDepth int
	// Policy selects FIFO or LIFO region prioritization.
	Policy prefetch.Policy
	// BankAware prioritizes regions mapping to open DRAM rows.
	BankAware bool
	// Scheduled issues prefetches only on idle channel cycles; when
	// false, prefetches enter the demand queue as ordinary requests
	// (Table 4's "FIFO prefetch" pathology).
	Scheduled bool
	// Insert is the L2 replacement priority for prefetched blocks.
	Insert cache.InsertPos
	// BufferBlocks, when positive, prefetches into a separate
	// fully-associative buffer of this many blocks instead of the L2
	// (the Jouppi-style alternative of Section 5's related work).
	// Demand misses probe the buffer and promote hits into the L2.
	BufferBlocks int
	// ThrottleAccuracy, when positive, suppresses prefetching while
	// on-line accuracy is below the threshold (Section 4.4's
	// suggestion).
	ThrottleAccuracy float64
	// ThrottleWindow is the accuracy sampling window.
	ThrottleWindow int
}

// HardenConfig tunes the robustness layer threaded through a run: the
// forward-progress watchdog and the cross-layer invariant checker.
// Corruption escaping as a panic is caught whatever the setting (see
// System.Run).
type HardenConfig struct {
	// WatchdogCycles, when positive, aborts the run with a structured
	// diagnostic dump (*harden.WatchdogError) if no instruction retires,
	// no channel access issues, and no transfer completes for this many
	// consecutive core cycles. Zero disables the watchdog.
	WatchdogCycles int64
	// Paranoid enables the invariant checker: every ParanoidEvery
	// cycles the run cross-checks MSHR entries against in-flight
	// controller transfers, cache recency-chain integrity, prefetch
	// queue accounting, and channel timestamp sanity, aborting with a
	// *harden.InvariantError on the first violation.
	Paranoid bool
	// ParanoidEvery is the check interval in core cycles; zero defaults
	// to 4096 when Paranoid is set.
	ParanoidEvery int64
}

// Config describes one simulated system.
type Config struct {
	// ClockHz is the core clock (1.6 GHz base).
	ClockHz float64
	// Width is dispatch/retire width; ROBSize the instruction window;
	// StoreBuffer the bound on unissued retired stores.
	Width, ROBSize, StoreBuffer int
	// SustainedIPC bounds average dispatch throughput below Width,
	// standing in for the ILP limits of real code on a 4-wide core;
	// zero disables the bound.
	SustainedIPC float64

	// L1Size/L1Assoc/L1Block shape the L1 data cache; L1HitCycles its
	// load-to-use latency.
	L1Size      int64
	L1Assoc     int
	L1Block     int
	L1HitCycles int

	// L2Size/L2Assoc/L2Block shape the on-chip L2; L2HitCycles its
	// access latency. MSHRs bounds outstanding demand misses.
	L2Size      int64
	L2Assoc     int
	L2Block     int
	L2HitCycles int
	MSHRs       int

	// Channels and DevicesPerChannel shape the Rambus system; Mapping
	// selects the address mapping ("base", "swap", "xor"); Timing the
	// DRDRAM part; ClosedPage the row-buffer policy.
	Channels          int
	DevicesPerChannel int
	Mapping           string
	Timing            dram.Timing
	ClosedPage        bool
	// Interleaving organizes the physical channels: "ganged" (default,
	// empty) simply interleaves them into one wide logical channel as
	// in the paper; "independent" gives each channel its own controller
	// with whole blocks striped across channels (the Section 6
	// "complex interleaving" direction).
	Interleaving string
	// ReorderWindow is the scan bound of the "frfcfs-cap" issue policy
	// (the Section 6 extension): the controller may issue a queued
	// demand miss or writeback whose DRAM row is open ahead of up to
	// ReorderWindow-1 older entries. "frfcfs-cap" requires it >= 2;
	// under any other policy a window above 1 is rejected.
	ReorderWindow int
	// SchedPolicy names the controller issue policy from the policy
	// registry ("fcfs", "frfcfs", "frfcfs-cap"). Empty means "fcfs",
	// the paper's strict in-order issue.
	SchedPolicy string
	// BankTiming names the per-activate bank-timing scheme from the
	// policy registry ("flat", "tiered", "rowreuse"). Empty and "flat"
	// charge the part's uniform activate latency.
	BankTiming string
	// Counterfactual arms decision tracing: the controllers and the
	// prefetch engine record, at every decision point, what each
	// registered alternative policy would have done, as trace events
	// obsdump aggregates into a divergence table. Requires Obs.Trace.
	Counterfactual bool
	// Refresh enables DRAM refresh modeling: periodically the channel
	// is consumed by a refresh operation (disabled by default; the
	// paper does not model refresh).
	Refresh bool

	// Prefetch configures the region prefetch engine.
	Prefetch PrefetchConfig

	// PerfectL2 makes every L2 access hit; PerfectMem makes every L1
	// access hit (Figure 1's upper bounds).
	PerfectL2, PerfectMem bool

	// MaxInstrs is the per-run measured instruction budget.
	MaxInstrs uint64
	// WarmupInstrs run before measurement begins: caches, row buffers,
	// and the prefetch queue reach steady state, and all statistics are
	// then reset. (The paper verified cold-start insignificance over
	// 200M-instruction samples; our shorter synthetic samples need the
	// explicit warmup.)
	WarmupInstrs uint64

	// SoftwarePrefetch turns on Section 4.7's compiler prefetches: the
	// run layers' generators emit them and the system executes them.
	// Off, as in the paper's main runs, a trace's prefetches are dropped.
	SoftwarePrefetch bool

	// Harden configures the robustness layer (watchdog, paranoid
	// invariant checking). The zero value runs with both off, matching
	// the paper's measurement configurations.
	Harden HardenConfig

	// Obs configures the observability layer (metrics registry, event
	// tracer, timeline sampling). The zero value disables it all; a
	// disabled instrument costs one branch per hook site.
	Obs obs.Config
}

// Base returns the paper's base configuration (Section 3.1): a 1.6 GHz
// 4-wide core with a 64-entry window, 64KB 2-way L1 with 8 MSHRs, a
// 1MB 4-way 12-cycle L2 with 64-byte blocks, and four DRDRAM channels
// of 800-40 parts (256MB total) under the straightforward address
// mapping.
func Base() Config {
	return Config{
		ClockHz: 1.6e9,
		Width:   4, ROBSize: 64, StoreBuffer: 64, SustainedIPC: 2.0,
		L1Size: 64 << 10, L1Assoc: 2, L1Block: 64, L1HitCycles: 3,
		L2Size: 1 << 20, L2Assoc: 4, L2Block: 64, L2HitCycles: 12, MSHRs: 8,
		Channels: 4, DevicesPerChannel: 2,
		Mapping: "base", Timing: dram.Part800x40,
		MaxInstrs: 1_000_000,
	}
}

// Tuned returns the paper's best configuration: the base system with
// the XOR mapping and tuned scheduled region prefetching (LIFO, 4KB
// regions, bank-aware, LRU insertion).
func Tuned() Config {
	cfg := Base()
	cfg.Mapping = "xor"
	cfg.Prefetch = TunedPrefetch()
	return cfg
}

// TunedPrefetch returns the Section 4 tuned prefetch configuration.
func TunedPrefetch() PrefetchConfig {
	return PrefetchConfig{
		Enabled:     true,
		RegionBytes: 4096,
		QueueDepth:  8,
		Policy:      prefetch.LIFO,
		BankAware:   true,
		Scheduled:   true,
		Insert:      cache.LRU,
	}
}

// Bounds enforced by Validate beyond structural realizability. They
// exist so that a validated Config is safe to build: allocation sizes
// stay sane and every downstream constructor precondition holds, which
// is what lets New promise an error instead of a panic and lets the
// fuzz harness drive Validate with arbitrary field values.
const (
	maxCacheBytes = 1 << 30 // 1 GB per cache level
	maxCacheSets  = 1 << 22 // caps the per-set table allocation
	maxMSHRs      = 1024
	minClockHz    = 1e3
	maxClockHz    = 1e12
)

// Validate checks the configuration for consistency, reporting every
// violation at once as a *harden.ConfigError, each under the one field
// it concerns. The contract with New is strict: a Config that
// validates always builds, so callers never see a panic or a late
// constructor error for a config-shaped problem.
func (c Config) Validate() error {
	var v harden.Validator

	v.FloatRange("ClockHz", c.ClockHz, minClockHz, maxClockHz)
	v.Range("Width", int64(c.Width), 1, 64)
	v.Range("ROBSize", int64(c.ROBSize), 1, 1<<20)
	v.Range("StoreBuffer", int64(c.StoreBuffer), 1, 1<<20)
	v.FloatRange("SustainedIPC", c.SustainedIPC, 0, 1024)

	l1 := validateCache(&v, c.L1Size, c.L1Assoc, c.L1Block, "L1Size", "L1Assoc", "L1Block")
	if validateCache(&v, c.L2Size, c.L2Assoc, c.L2Block, "L2Size", "L2Assoc", "L2Block") && l1 {
		if c.L2Block < c.L1Block {
			v.Reject("L2Block", c.L2Block,
				"must be >= L1Block (%d): an L1 line must fit inside the L2 line that backs it", c.L1Block)
		}
		if c.L2Size < c.L1Size {
			v.Reject("L2Size", c.L2Size, "must be >= L1Size (%d) for the hierarchy's inclusion assumption", c.L1Size)
		}
	}
	v.Range("L1HitCycles", int64(c.L1HitCycles), 0, 1000)
	v.Range("L2HitCycles", int64(c.L2HitCycles), 1, 10000)
	v.Range("MSHRs", int64(c.MSHRs), 1, maxMSHRs)

	v.Pow2Range("Channels", int64(c.Channels), 1, 64)
	v.Pow2Range("DevicesPerChannel", int64(c.DevicesPerChannel), 1, 64)
	v.Merge("", policy.Mappings.Validate(c.Mapping, c.geometry()))
	if t := c.Timing; t.Packet <= 0 || t.PRER < 0 || t.ACT < 0 || t.CAC < 0 {
		v.Reject("Timing", t.Name, "part needs a positive packet time and non-negative command latencies")
	}
	v.Merge("", policy.Interleavings.Validate(c.Interleaving, c.geometry()))
	v.Merge("", policy.Sched.Validate(c.SchedPolicy, c.schedParams()))
	v.Merge("", policy.Timings.Validate(c.BankTiming, policy.TimingParams{}))
	if c.Counterfactual && !c.Obs.Trace {
		v.Reject("Counterfactual", true, "requires Obs.Trace: decision tracing writes through the event tracer")
	}

	if c.PerfectL2 && c.PerfectMem {
		v.Reject("PerfectL2", true, "PerfectL2 and PerfectMem are mutually exclusive")
	}

	if c.Prefetch.Enabled {
		p := c.Prefetch
		v.Merge("", policy.Prefetchers.Validate(p.Scheme, prefetchParams(c)))
		v.Range("Prefetch.Insert", int64(p.Insert), int64(cache.MRU), int64(cache.LRU))
		v.Range("Prefetch.BufferBlocks", int64(p.BufferBlocks), 0, policy.MaxQueueDepth)
		v.Range("Prefetch.ThrottleWindow", int64(p.ThrottleWindow), 0, 1<<20)
		v.FloatRange("Prefetch.ThrottleAccuracy", p.ThrottleAccuracy, 0, 1)
	}

	v.Range("Harden.WatchdogCycles", c.Harden.WatchdogCycles, 0, math.MaxInt64)
	v.Range("Harden.ParanoidEvery", c.Harden.ParanoidEvery, 0, math.MaxInt64)

	v.Range("Obs.TraceEvents", int64(c.Obs.TraceEvents), 0, 1<<28)
	v.Range("Obs.SampleEvery", int64(c.Obs.SampleEvery), 0, math.MaxInt64)

	return v.Err()
}

// ValidateExternalController reports, as a *harden.ConfigError, each
// field that sets controller behaviour an external memory backend does
// not take from the system: the issue policy (SchedPolicy, a
// ReorderWindow above 1), Refresh and Counterfactual decision tracing.
// The backend serves the requests on its own controllers and channels,
// so a system built with any of these would run without it, silently.
func (c *Config) ValidateExternalController() error {
	var v harden.Validator
	if c.SchedPolicy != "" {
		v.Reject("SchedPolicy", c.SchedPolicy, "must be empty: external memory issues FCFS")
	}
	if c.ReorderWindow > 1 {
		v.Reject("ReorderWindow", c.ReorderWindow, "must be 0 or 1: external memory issues FCFS")
	}
	if c.Refresh {
		v.Reject("Refresh", true, "must be false: external memory models no refresh")
	}
	if c.Counterfactual {
		v.Reject("Counterfactual", true, "must be false: external memory traces no decisions")
	}
	return v.Err()
}

// geometry is the physical channel geometry the organization splits.
func (c Config) geometry() addrmap.Geometry {
	return addrmap.Geometry{Channels: c.Channels, DevicesPerChannel: c.DevicesPerChannel}
}

// schedParams maps the config onto the scheduling schemes' knobs.
func (c Config) schedParams() policy.SchedParams {
	return policy.SchedParams{Window: c.ReorderWindow}
}

// validateCache checks one cache level's shape, each problem under
// its own field: the block, the associativity, and then the size the
// other two must divide into a power-of-two number of sets within the
// allocation bounds. It reports whether the shape builds.
func validateCache(v *harden.Validator, size int64, assoc, block int, sizeField, assocField, blockField string) bool {
	blockOK := v.Pow2Range(blockField, int64(block), int64(cache.MinBlockBytes), maxCacheBytes)
	assocOK := v.Range(assocField, int64(assoc), 1, math.MaxUint16)
	if !v.Range(sizeField, size, 1, maxCacheBytes) || !blockOK || !assocOK {
		return false
	}
	way := int64(assoc) * int64(block)
	switch sets := size / way; {
	case size%way != 0:
		v.Reject(sizeField, size, "must be a multiple of %s*%s (%d)", assocField, blockField, way)
	case sets&(sets-1) != 0:
		v.Reject(sizeField, size, "implies %d sets, not a power of two", sets)
	case sets > maxCacheSets:
		v.Reject(sizeField, size, "implies %d sets; max %d", sets, maxCacheSets)
	default:
		return true
	}
	return false
}
