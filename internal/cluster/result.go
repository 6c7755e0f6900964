package cluster

import (
	"context"
	"fmt"

	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

// SystemResult is one member system's measurement record plus its
// share of the contended fabric.
type SystemResult struct {
	// Label identifies the system ("sys0-mcf"); Bench and Seed echo
	// its spec.
	Label string `json:"label"`
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`

	// Result is the system's own steady-state measurement (IPC, cache
	// stats; its Channel/Ctrl fields are zero — channel state lives on
	// the fabric).
	Result core.Result `json:"result"`

	// Share accounts the system's fabric usage, summed over channels:
	// grants per class, exact data-bus time, queueing delay.
	Share memctrl.ShareStats `json:"share"`
	// OccupancyShare is the system's fraction of all data-bus busy
	// time — the interference headline: who actually got the channels.
	OccupancyShare float64 `json:"occupancy_share"`

	// Metrics is the system's observability registry delta (nil when
	// metrics are off).
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// IPCAlone and Slowdown are filled by RunWithBaselines: the IPC of
	// the same spec running alone on the same fabric, and the ratio
	// alone/shared (>= 1 under contention).
	IPCAlone float64 `json:"ipc_alone,omitempty"`
	Slowdown float64 `json:"slowdown,omitempty"`
}

// Result is the merged record of one cluster run. It is fully
// deterministic — no wall-clock fields — so two runs of the same
// config marshal to identical bytes regardless of engine or
// GOMAXPROCS; the determinism tests compare exactly that.
type Result struct {
	Systems []SystemResult `json:"systems"`

	// Epochs and Messages count barrier rounds and cross-shard
	// messages; TraceHash digests the full fire log (every message's
	// protocol fields, Slot left out, in canonical merge order, one
	// combine and one serial multiply per message), the difftest's
	// bit-identity witness.
	Epochs    uint64 `json:"epochs"`
	Messages  uint64 `json:"messages"`
	TraceHash string `json:"trace_hash"`

	// SimTime is the fabric clock at termination (the last barrier's
	// epoch boundary; event-free epochs are skipped, so Epochs × Δ may
	// undercount it).
	SimTime sim.Time `json:"sim_time_ps"`

	// Channels is the fabric width; Channel sums the per-channel
	// statistics; DataUtilization and CommandUtilization are mean
	// per-channel bus occupancies over the run.
	Channels           int           `json:"channels"`
	Channel            channel.Stats `json:"channel"`
	DataUtilization    float64       `json:"data_utilization"`
	CommandUtilization float64       `json:"command_utilization"`

	// ClusterMetrics carries fabric-level series (per-system shares
	// with system labels, per-channel contention) when metrics are on.
	ClusterMetrics map[string]float64 `json:"cluster_metrics,omitempty"`

	// WeightedSpeedup = Σ IPC_shared,i / IPC_alone,i and Fairness =
	// min_i slowdown / max_i slowdown, both filled by RunWithBaselines
	// (zero otherwise).
	WeightedSpeedup float64 `json:"weighted_speedup,omitempty"`
	Fairness        float64 `json:"fairness,omitempty"`

	// trace holds the per-system trace streams when Obs.Trace was set.
	// Unexported on purpose: JSON never sees it, so the marshaled
	// Result stays the byte-identity witness across engines.
	trace []obs.SystemEvents
}

// Trace returns the per-system trace streams captured by the run (one
// lane group per system in the Chrome export), nil unless the config
// enabled tracing.
func (r Result) Trace() []obs.SystemEvents { return r.trace }

// collect assembles the merged result after the epoch loop finishes.
func (r *run) collect() (Result, error) {
	res := Result{
		Epochs:    r.epochs,
		Messages:  r.messages,
		TraceHash: fmt.Sprintf("%016x", r.hash),
		SimTime:   r.now,
		Channels:  len(r.mem.chns),
	}

	// Per-system shares, summed over channels.
	shares := make([]memctrl.ShareStats, len(r.systems))
	for _, c := range r.mem.ctrls {
		for sys := range shares {
			shares[sys] = shares[sys].Add(c.Share(sys))
		}
	}
	var totalData sim.Time
	for _, sh := range shares {
		totalData += sh.DataTime
	}

	for i, sh := range r.systems {
		sysRes, err := sh.sys.Snapshot()
		if err != nil {
			return Result{}, fmt.Errorf("cluster: %s: %w", sh.label, err)
		}
		sr := SystemResult{
			Label:   sh.label,
			Bench:   r.cfg.Systems[i].Bench,
			Seed:    r.cfg.Systems[i].Seed,
			Result:  sysRes,
			Share:   shares[i],
			Metrics: sh.sys.ObsMetricsDelta(),
		}
		if totalData > 0 {
			sr.OccupancyShare = float64(shares[i].DataTime) / float64(totalData)
		}
		res.Systems = append(res.Systems, sr)
	}

	for _, chn := range r.mem.chns {
		res.Channel = res.Channel.Add(chn.Stats())
	}
	if res.SimTime > 0 {
		span := res.SimTime * sim.Time(len(r.mem.chns))
		res.DataUtilization = res.Channel.DataUtilization(span)
		res.CommandUtilization = res.Channel.CommandUtilization(span)
	}
	res.ClusterMetrics = r.clusterMetrics(shares)
	if r.cfg.Obs.Trace {
		for _, sh := range r.systems {
			res.trace = append(res.trace, obs.SystemEvents{Label: sh.label, Events: sh.sys.Obs().Tracer.Events()})
		}
		res.trace = append(res.trace, obs.SystemEvents{Label: "fabric", Events: r.mem.obs.Tracer.Events()})
	}
	return res, nil
}

// clusterMetrics renders the fabric-level series with per-system and
// per-channel labels when metrics are enabled, in the same flattened
// name form obs.Registry.Values produces.
func (r *run) clusterMetrics(shares []memctrl.ShareStats) map[string]float64 {
	if !r.cfg.Obs.Metrics && r.cfg.Obs.SampleEvery == 0 {
		return nil
	}
	m := make(map[string]float64)
	classes := [...]channel.Class{channel.Demand, channel.Writeback, channel.Prefetch}
	for i, sh := range r.systems {
		label := sh.label
		for _, c := range classes {
			m[fmt.Sprintf("memsim_cluster_share_grants_total{class=%s,system=%s}", c, label)] = float64(shares[i].Issued[c])
		}
		m[fmt.Sprintf("memsim_cluster_share_data_time_ps{system=%s}", label)] = float64(shares[i].DataTime)
		m[fmt.Sprintf("memsim_cluster_share_queue_wait_ps{system=%s}", label)] = float64(shares[i].QueueWait)
		m[fmt.Sprintf("memsim_cluster_share_max_queue{system=%s}", label)] = float64(shares[i].MaxQueue)
	}
	for c, chn := range r.mem.chns {
		st := chn.Stats()
		m[fmt.Sprintf("memsim_cluster_channel_data_busy_ps{channel=%d}", c)] = float64(st.DataBusy)
		var acc uint64
		for _, n := range st.Accesses {
			acc += n
		}
		m[fmt.Sprintf("memsim_cluster_channel_accesses_total{channel=%d}", c)] = float64(acc)
	}
	m["memsim_cluster_epochs_total"] = float64(r.epochs)
	m["memsim_cluster_messages_total"] = float64(r.messages)
	return m
}

// RunWithBaselines runs the cluster, then each member alone on an
// identical fabric, and fills the interference metrics: per-system
// IPCAlone and Slowdown, the cluster's WeightedSpeedup
// (Σ IPC_shared/IPC_alone, = N without contention), and Fairness
// (min slowdown / max slowdown, = 1 when interference is even).
// The solo runs use the sequential engine — they are single-shard
// anyway — and the same seeds, so IPC_alone is the true contention-
// free baseline of the exact stream each system executed.
func RunWithBaselines(ctx context.Context, cfg Config) (Result, error) {
	res, err := Run(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	minSlow, maxSlow := 0.0, 0.0
	for i := range res.Systems {
		solo := cfg
		solo.Systems = []SystemSpec{cfg.Systems[i]}
		solo.Parallel = false
		soloRes, err := Run(ctx, solo)
		if err != nil {
			return Result{}, fmt.Errorf("cluster: baseline for system %d: %w", i, err)
		}
		alone := soloRes.Systems[0].Result.IPC
		shared := res.Systems[i].Result.IPC
		res.Systems[i].IPCAlone = alone
		if alone > 0 {
			res.WeightedSpeedup += shared / alone
		}
		if shared > 0 {
			slow := alone / shared
			res.Systems[i].Slowdown = slow
			if minSlow == 0 || slow < minSlow {
				minSlow = slow
			}
			if slow > maxSlow {
				maxSlow = slow
			}
		}
	}
	if maxSlow > 0 {
		res.Fairness = minSlow / maxSlow
	}
	return res, nil
}
