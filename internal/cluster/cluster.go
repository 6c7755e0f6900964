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
	// system. The cluster overrides its memory geometry, prefetch
	// scheduling and hardening (see Config.systemConfig) so all members
	// agree on the shared fabric. Validate rejects a config that sets
	// what the shared controllers do not model: an issue policy other
	// than FCFS, refresh, or counterfactual decision tracing.
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

// Validate checks the cluster-level shape and rejects a member config
// that sets controller behaviour the shared controllers cannot honour
// (core.Config.ValidateExternalController). The rest of a member's
// configuration is validated by core.NewExternal at build time.
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
		if sc := s.Config; sc != nil {
			if err := sc.ValidateExternalController(); err != nil {
				return fmt.Errorf("cluster: system %d: %w", i, err)
			}
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

// onFabric puts the shared fabric's shape on cfg: its geometry, part,
// mapping, row policy and bank timing, each channel behind its own
// controller with blocks striped across them. The members and the
// shared memory (onFabric(core.Base()), whose 64 B L2 block is the
// stripe granule) all take it, so they agree on the address space.
func (c Config) onFabric(cfg core.Config) core.Config {
	cfg.Channels = c.Channels
	cfg.DevicesPerChannel = c.DevicesPerChannel
	cfg.Interleaving = "independent"
	cfg.Mapping = c.Mapping
	cfg.Timing = dram.Parts[c.Part]
	cfg.ClosedPage = c.ClosedPage
	cfg.BankTiming = c.BankTiming
	return cfg
}

// systemConfig derives system i's core configuration: the spec's base
// (or core.Base()) on the fabric, so every member computes the same
// physical address space the shared memory serves. External-memory
// restrictions are normalized rather than rejected — scheduled and
// bank-aware prefetching degrade to the unscheduled FIFO discipline
// (the member has no controller of its own whose idle and row state
// the prefetcher could read), and hardening monitors are disabled
// (they inspect local controllers).
func (c Config) systemConfig(i int) core.Config {
	cfg := core.Base()
	if sc := c.Systems[i].Config; sc != nil {
		cfg = *sc
	}
	cfg = c.onFabric(cfg)
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
