// Package cluster simulates N CPU+cache systems — each a full
// internal/core system running its own workload — sharing a set of
// DRDRAM channels through a shared-clock event fabric. It is the
// multi-programmed regime the paper's single-system study points
// toward: demand misses, writebacks, and prefetches from different
// programs contending for the same scarce channel slots.
//
// Every member system and the shared memory — one core.Memory serving
// every member, its one controller per channel putting demand misses
// and unscheduled prefetches before writebacks, round-robin across
// systems within a class — run on one event queue. A link crossing is
// an event one link latency after its send that carries the request
// itself, so crossings land in send order and a run is deterministic
// by construction. See DESIGN.md §15.
package cluster

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/dram"
	"memsim/internal/harden"
	"memsim/internal/obs"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// MaxSystems bounds a cluster's size: enough for every profile in the
// suite to co-run, small enough that misconfigured specs fail fast.
const MaxSystems = 64

// DefaultLinkLatency is the default system-to-fabric hop: 10ns
// approximates an on-board point-to-point link.
const DefaultLinkLatency = 10 * sim.Nanosecond

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
	// system. Config.systemConfig lays the shared fabric over it and
	// turns off what only local controllers serve; Config.Validate
	// rejects what the shared ones do not model (an issue policy other
	// than FCFS, refresh, decision tracing); core.NewExternal the rest.
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

	// LinkLatency is the system-to-fabric hop: a crossing sent at t
	// lands at t+LinkLatency. Zero means DefaultLinkLatency.
	LinkLatency sim.Time `json:"link_latency_ps,omitempty"`

	// MaxInstrs, when positive, overrides every system's measured
	// instruction budget (and WarmupInstrs overrides the warmup).
	MaxInstrs    uint64 `json:"max_instrs,omitempty"`
	WarmupInstrs uint64 `json:"warmup_instrs,omitempty"`

	// Parallel is ignored: the cluster has one engine.
	//
	// Deprecated: the field stays only while perfbench still sets it,
	// and goes with the perfbench move onto today's APIs (ROADMAP item
	// 2).
	Parallel bool `json:"parallel,omitempty"`

	// Obs configures per-system observability (each system gets its
	// own registry/tracer; the cluster adds fabric-level series).
	Obs obs.Config `json:"-"`
}

// withDefaults returns the config with zero values resolved.
func (c Config) withDefaults() Config {
	if c.LinkLatency == 0 {
		c.LinkLatency = DefaultLinkLatency
	}
	return c
}

// Validate checks the cluster-level shape and owns the member rules,
// reporting each problem as a *harden.ConfigError field: Systems,
// Systems[i].Bench, LinkLatency, and each controller setting a member
// may not set (core.Config.ValidateExternalController), named under
// the member, e.g. Systems[2].Config.SchedPolicy. The fabric and each
// member's full config are checked at build time.
func (c Config) Validate() error {
	var v harden.Validator
	v.Range("Systems", int64(len(c.Systems)), 1, MaxSystems)
	for i, s := range c.Systems {
		if _, err := workload.ByName(s.Bench); err != nil {
			v.Reject(fmt.Sprintf("Systems[%d].Bench", i), s.Bench, "%v", err)
		}
		if s.Config != nil {
			if err := s.Config.ValidateExternalController(); err != nil {
				v.Merge(fmt.Sprintf("Systems[%d].Config", i), err)
			}
		}
	}
	if c.LinkLatency <= 0 {
		v.Reject("LinkLatency", c.LinkLatency, "must be positive")
	}
	return v.Err()
}

// fabric builds and validates the shared memory's configuration:
// core.Base(), whose 64 B L2 block is the stripe granule, with the
// cluster's shape on it, each channel behind its own controller with
// blocks striped across them. A zero Channels, DevicesPerChannel,
// Mapping or Part keeps Base's.
func (c Config) fabric() (core.Config, error) {
	cfg := core.Base()
	if c.Channels != 0 {
		cfg.Channels = c.Channels
	}
	if c.DevicesPerChannel != 0 {
		cfg.DevicesPerChannel = c.DevicesPerChannel
	}
	if c.Mapping != "" {
		cfg.Mapping = c.Mapping
	}
	if c.Part != "" {
		t, err := dram.PartByName(c.Part)
		if err != nil {
			return cfg, fmt.Errorf("cluster: fabric: %w", err)
		}
		cfg.Timing = t
	}
	cfg.Interleaving = "independent"
	cfg.ClosedPage = c.ClosedPage
	cfg.BankTiming = c.BankTiming
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("cluster: fabric: %w", err)
	}
	return cfg, nil
}

// systemConfig derives system i's core configuration: the spec's base
// (or core.Base()) with the fabric's shape on it, so every member
// computes the same physical address space the shared memory serves.
// External-memory restrictions are normalized rather than rejected —
// scheduled and bank-aware prefetching degrade to the unscheduled FIFO
// discipline (the member has no controller of its own whose idle and
// row state the prefetcher could read), and hardening monitors are
// disabled (they inspect local controllers).
func (c Config) systemConfig(i int, fabric core.Config) core.Config {
	cfg := core.Base()
	if sc := c.Systems[i].Config; sc != nil {
		cfg = *sc
	}
	cfg.Channels = fabric.Channels
	cfg.DevicesPerChannel = fabric.DevicesPerChannel
	cfg.Interleaving = fabric.Interleaving
	cfg.Mapping = fabric.Mapping
	cfg.Timing = fabric.Timing
	cfg.ClosedPage = fabric.ClosedPage
	cfg.BankTiming = fabric.BankTiming
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
