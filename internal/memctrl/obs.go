package memctrl

import (
	"strconv"

	"memsim/internal/channel"
	"memsim/internal/obs"
)

// demandLatencyBoundsNs buckets the demand-miss latency histogram, in
// nanoseconds. The anchors come from the paper's 800-40 part: a
// contentionless row hit resolves in 40 ns, a precharged bank in
// 57.5 ns, a row miss in 77.5 ns, and everything above ~100 ns is
// queueing or contention.
var demandLatencyBoundsNs = []float64{40, 60, 80, 100, 150, 200, 300, 500, 1000, 2000}

// Observe wires the controller into a run's observer: issue counters
// and the demand-latency histogram into the registry, prefetch-issue
// and demand-bypass instants into the tracer. group is this
// controller's index. Call at most once, before the first request.
func (c *Controller) Observe(ob *obs.Observer, group int) {
	if ob == nil {
		return
	}
	c.tr = ob.Tracer
	c.group = group
	reg := ob.Registry
	if reg == nil {
		return
	}
	ctrl := obs.Label{Key: "ctrl", Value: strconv.Itoa(group)}

	for cl := channel.Class(0); cl < channel.Class(len(c.stats.Issued)); cl++ {
		cl := cl
		reg.CounterFunc("memsim_memctrl_issued_total",
			"Requests issued on the channel by class.",
			func() float64 { return float64(c.stats.Issued[cl]) },
			ctrl, obs.Label{Key: "class", Value: cl.String()})
	}
	reg.CounterFunc("memsim_memctrl_demand_latency_ps_total",
		"Accumulated submit-to-critical-word time of demand misses, in simulated picoseconds.",
		func() float64 { return float64(c.stats.DemandLatency) }, ctrl)
	reg.CounterFunc("memsim_memctrl_demand_queue_wait_ps_total",
		"Accumulated submit-to-issue time of demand misses, in simulated picoseconds.",
		func() float64 { return float64(c.stats.DemandQueueWait) }, ctrl)
	reg.CounterFunc("memsim_memctrl_demand_behind_prefetch_total",
		"Demand misses that arrived while a prefetch transfer occupied the channel.",
		func() float64 { return float64(c.stats.PrefetchesBehindDemand) }, ctrl)
	reg.CounterFunc("memsim_memctrl_reordered_total",
		"Requests issued ahead of older queue entries by open-row-first reordering.",
		func() float64 { return float64(c.stats.Reordered) }, ctrl)
	reg.GaugeFunc("memsim_memctrl_demand_queue_depth",
		"Demand requests currently queued.",
		func() float64 { return float64(c.queued[demandQ]) }, ctrl)
	reg.GaugeFunc("memsim_memctrl_demand_queue_max",
		"High-water mark of the demand queue.",
		func() float64 { return float64(c.stats.MaxDemandQueue) }, ctrl)
	c.demandLat = reg.Histogram("memsim_memctrl_demand_latency_ns",
		"Per-miss submit-to-critical-word latency of demand misses, in nanoseconds.",
		demandLatencyBoundsNs, ctrl)
}
