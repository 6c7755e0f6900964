// Package cluster simulates N CPU+cache systems — each a full
// internal/core system running its own workload — sharing a set of
// DRDRAM channels through a shared-clock event fabric. It is the
// multi-programmed regime the paper's single-system study points
// toward: demand misses, writebacks, and prefetches from different
// programs contending for the same scarce channel slots.
//
// Execution is sharded: every system owns a private scheduler, and the
// shared channels live on one memory shard with a shared
// memctrl.Controller per channel (demand misses and unscheduled
// prefetches before writebacks, round-robin across systems within a
// class). Shards advance in
// bounded epochs of LinkLatency simulated time and exchange messages
// only at epoch barriers, in a canonical sort order, so the parallel
// engine is bit-identical to the sequential reference regardless of
// GOMAXPROCS. See DESIGN.md §15 for the protocol argument.
package cluster

import (
	"fmt"
	"strings"

	"memsim/internal/core"
	"memsim/internal/dram"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// MaxSystems bounds a cluster's size: enough for every profile in the
// suite to co-run, small enough that misconfigured specs fail fast.
const MaxSystems = 64

// DefaultLinkLatency is the default system-to-fabric hop: epoch width
// Δ equals it, so it is also the granularity of cross-system
// interaction. 10ns approximates an on-board point-to-point link and
// keeps epochs coarse enough that barrier overhead stays small.
const DefaultLinkLatency = 10 * sim.Nanosecond

// fabricInterleaving organizes the shared channels: each one behind
// its own controller, blocks striped across them. Member systems take
// the same organization, so both sides agree on the address space.
const fabricInterleaving = "independent"

// skewBlocks offsets each system's physical address space within the
// shared fabric by this many 64-byte blocks (a prime, so systems with
// identical workloads still exercise different rows and banks, the
// same trick workload generation uses to de-correlate streams).
const skewBlocks = 1009

// SystemSpec describes one member system: which workload it runs and
// optionally a full core configuration override. The zero Config
// (nil) means core.Base() with the cluster's shared-memory geometry
// applied on top.
type SystemSpec struct {
	// Bench names the workload profile (workload.ByName).
	Bench string `json:"bench"`
	// Seed offsets the workload generator so co-running copies of one
	// profile do not replay identical streams.
	Seed uint64 `json:"seed"`
	// Config, when non-nil, is the base core configuration for this
	// system. The cluster overrides its memory geometry and scheduler
	// engine (see Config.systemConfig) so all members agree on the
	// shared fabric.
	Config *core.Config `json:"config,omitempty"`
}

// Label names the system for metrics, traces, and reports.
func (s SystemSpec) Label(idx int) string { return fmt.Sprintf("sys%d-%s", idx, s.Bench) }

// Config describes a cluster run.
type Config struct {
	// Systems are the member systems; at least one.
	Systems []SystemSpec `json:"systems"`

	// Channels and DevicesPerChannel shape the shared Rambus fabric:
	// Channels independent channels, each with its own controller, blocks
	// striped across them. Zero values take core.Base()'s geometry.
	Channels          int `json:"channels,omitempty"`
	DevicesPerChannel int `json:"devices_per_channel,omitempty"`
	// Mapping selects the per-channel address mapping ("base", "swap",
	// "xor"); empty means "base".
	Mapping string `json:"mapping,omitempty"`
	// Part names the DRDRAM timing part (dram.PartByName); empty means
	// the base configuration's part.
	Part string `json:"part,omitempty"`
	// ClosedPage selects the row-buffer policy of the shared channels.
	ClosedPage bool `json:"closed_page,omitempty"`
	// BankTiming names the bank-timing scheme of the shared channels
	// ("flat", "tiered", "rowreuse"); empty means flat. Each physical
	// channel gets its own policy instance (rowreuse keeps state).
	BankTiming string `json:"bank_timing,omitempty"`

	// LinkLatency is the system-to-fabric hop, and therefore the epoch
	// width Δ: a message sent at t delivers at t+Δ, which always lands
	// in a strictly later epoch. Zero means DefaultLinkLatency.
	LinkLatency sim.Time `json:"link_latency_ps,omitempty"`

	// MaxInstrs, when positive, overrides every system's measured
	// instruction budget (and WarmupInstrs overrides the warmup).
	MaxInstrs    uint64 `json:"max_instrs,omitempty"`
	WarmupInstrs uint64 `json:"warmup_instrs,omitempty"`

	// Parallel selects the sharded engine: one goroutine per shard
	// with epoch barriers. False runs the sequential reference engine
	// (identical protocol, shards stepped in canonical order on one
	// goroutine). Both produce bit-identical results.
	Parallel bool `json:"parallel,omitempty"`

	// Obs configures per-system observability (each system gets its
	// own registry/tracer; the cluster adds fabric-level series).
	Obs obs.Config `json:"-"`
}

// withDefaults returns the config with zero values resolved.
func (c Config) withDefaults() Config {
	base := core.Base()
	if c.Channels == 0 {
		c.Channels = base.Channels
	}
	if c.DevicesPerChannel == 0 {
		c.DevicesPerChannel = base.DevicesPerChannel
	}
	if c.Mapping == "" {
		c.Mapping = base.Mapping
	}
	if c.Part == "" {
		c.Part = base.Timing.Name
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = DefaultLinkLatency
	}
	return c
}

// Validate checks the cluster-level shape. Per-system configurations
// are validated by core.NewExternal at build time.
func (c Config) Validate() error {
	if len(c.Systems) == 0 {
		return fmt.Errorf("cluster: no systems configured")
	}
	if len(c.Systems) > MaxSystems {
		return fmt.Errorf("cluster: %d systems exceeds MaxSystems=%d", len(c.Systems), MaxSystems)
	}
	for i, s := range c.Systems {
		if _, err := workload.ByName(s.Bench); err != nil {
			return fmt.Errorf("cluster: system %d: %w", i, err)
		}
	}
	if c.Channels < 1 || c.Channels > 64 {
		return fmt.Errorf("cluster: Channels %d out of range [1, 64]", c.Channels)
	}
	if c.DevicesPerChannel < 1 || c.DevicesPerChannel > 64 {
		return fmt.Errorf("cluster: DevicesPerChannel %d out of range [1, 64]", c.DevicesPerChannel)
	}
	if c.LinkLatency <= 0 {
		return fmt.Errorf("cluster: LinkLatency must be positive, got %v", c.LinkLatency)
	}
	if c.Part != "" {
		if _, err := dram.PartByName(c.Part); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	if policy.Timings.Validate(c.BankTiming, policy.TimingParams{}) != nil {
		return fmt.Errorf("cluster: unknown bank timing %q (have %s)",
			c.BankTiming, strings.Join(policy.Timings.Names(), ", "))
	}
	return nil
}

// systemConfig derives system i's core configuration: the spec's base
// (or core.Base()) with the shared fabric geometry forced on top, so
// every member computes the same physical address space the memory
// shard serves. External-memory restrictions are normalized rather
// than rejected — scheduled/bank-aware prefetching degrades to the
// unscheduled FIFO discipline (the fabric cannot expose synchronous
// channel idle or row state across shards), and hardening monitors
// are disabled (they inspect local controllers).
func (c Config) systemConfig(i int) core.Config {
	cfg := core.Base()
	if sc := c.Systems[i].Config; sc != nil {
		cfg = *sc
	}
	cfg.Channels = c.Channels
	cfg.DevicesPerChannel = c.DevicesPerChannel
	cfg.Interleaving = fabricInterleaving
	cfg.Mapping = c.Mapping
	cfg.Timing = dram.Parts[c.Part]
	cfg.ClosedPage = c.ClosedPage
	if c.MaxInstrs > 0 {
		cfg.MaxInstrs = c.MaxInstrs
		cfg.WarmupInstrs = c.WarmupInstrs
	}
	cfg.Prefetch.Scheduled = false
	cfg.Prefetch.BankAware = false
	cfg.Harden = core.HardenConfig{}
	cfg.Obs = c.Obs
	return cfg
}
