package core

import (
	"sort"

	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
)

// watchdogTraceEvents is how many of the most recent trace events the
// hardening dump embeds when tracing is on: enough to see the memory
// system's last few transactions before a no-progress abort, small
// enough to keep the dump readable.
const watchdogTraceEvents = 16

// armObs builds the run's observer from cfg.Obs and wires every layer
// into it. With observability disabled the observer still exists but
// all instruments are nil, so each hook site costs one branch and the
// run is otherwise identical.
func (s *System) armObs() {
	s.obs = obs.New(s.cfg.Obs, s.sched.Now)
	s.tr = s.obs.Tracer

	s.mem.Observe(s.obs)
	s.l2.AttachTracer(s.obs.Tracer)
	if s.pfbuffer != nil {
		s.pfbuffer.AttachTracer(s.obs.Tracer)
	}
	if eo, ok := s.pf.(interface{ Observe(*obs.Observer) }); ok {
		eo.Observe(s.obs)
	}
	if s.cfg.Counterfactual && s.tr != nil {
		s.armCounterfactual()
	}

	reg := s.obs.Registry
	if reg == nil {
		return
	}
	// Bank-timing metrics exist only when a non-flat scheme is armed,
	// so flat-scheme metric dumps (and the golden fixtures built from
	// them) are untouched by the zoo.
	if ctrls := s.mem.ctrls; len(ctrls) > 0 && ctrls[0].Channel().Config().TimingPol != nil {
		reg.CounterFunc("memsim_dram_fast_activates_total",
			"Activates that took the timing scheme's fast path (near segment or reuse hit).",
			func() float64 {
				fast, _ := s.activates()
				return float64(fast)
			})
		reg.CounterFunc("memsim_dram_slow_activates_total",
			"Activates that paid the full flat latency under a non-flat timing scheme.",
			func() float64 {
				_, slow := s.activates()
				return float64(slow)
			})
	}
	s.l1.RegisterMetrics(reg, obs.Label{Key: "level", Value: "L1"})
	s.l2.RegisterMetrics(reg, obs.Label{Key: "level", Value: "L2"})
	if s.pfbuffer != nil {
		s.pfbuffer.RegisterMetrics(reg, obs.Label{Key: "level", Value: "pfbuffer"})
	}

	reg.CounterFunc("memsim_core_retired_total",
		"Instructions retired.",
		func() float64 { return float64(s.core.Stats().Retired) })
	reg.CounterFunc("memsim_core_late_merges_total",
		"Demand misses merged into in-flight prefetches.",
		func() float64 { return float64(s.lateMerges) })
	reg.CounterFunc("memsim_core_sw_prefetches_total",
		"Software prefetch fills requested.",
		func() float64 { return float64(s.swPrefetches) })
	reg.CounterFunc("memsim_core_prefetch_skipped_total",
		"Prefetch candidates dropped before issue (resident or in flight).",
		func() float64 { return float64(s.prefetchSkipped) })
	reg.GaugeFunc("memsim_core_mshr_occupancy",
		"MSHRs held by demand misses and software prefetches in flight.",
		func() float64 { return float64(s.held) })
	reg.GaugeFunc("memsim_core_prefetches_inflight",
		"Prefetch fills currently in flight.",
		func() float64 { return float64(s.fills.n - s.held) })
	reg.CounterFunc("memsim_sim_events_total",
		"Discrete events fired by the scheduler; a cluster member's scheduler is shared with every other member and the fabric, so it counts theirs too.",
		func() float64 { return float64(s.sched.EventsFired()) })
	reg.GaugeFunc("memsim_sim_now_ps",
		"Current simulated time in picoseconds (for a cluster member, the shared scheduler's clock).",
		func() float64 { return float64(s.sched.Now()) })
}

// activates sums the fast and slow activates counted by the channel
// groups' bank-timing policy instances; armObs calls it only when a
// non-flat scheme gave every group one.
func (s *System) activates() (fast, slow uint64) {
	for _, c := range s.mem.ctrls {
		f, sl := c.Channel().Config().TimingPol.Counters()
		fast, slow = fast+f, slow+sl
	}
	return fast, slow
}

// armCounterfactual arms decision tracing on both policy axes: each
// controller's issue policy and the prefetch engine (when on) are
// wrapped in their axis's Counterfactual decorator, which traces every
// registered alternative's would-be pick alongside the primary's.
// Alternatives see recorded inputs only — they never touch the
// simulation, so an armed run's architectural behaviour is identical
// to an unarmed one.
func (s *System) armCounterfactual() {
	for g, c := range s.mem.ctrls {
		cf := memctrl.NewCounterfactual(c.Policy(), s.tr, g)
		policy.Sched.Alternatives(s.cfg.SchedPolicy, s.cfg.schedParams(), cf.AddShadow)
		c.SetPolicy(cf)
	}
	if s.pf == nil {
		return
	}
	p := prefetchParams(s.cfg)
	cf := prefetch.NewCounterfactual(s.pf, s.tr, policy.Prefetchers.Resolve(s.cfg.Prefetch.Scheme))
	policy.Prefetchers.Alternatives(s.cfg.Prefetch.Scheme, p, cf.AddShadow)
	// Reassignment is safe here: armObs runs inside newSystem before
	// the first event, and the L2's PrefetchUsedHook closure reads s.pf
	// at call time.
	s.pf = cf
}

// Obs exposes the run's observer for export: metrics after Run, the
// trace ring at any quiescent point. Never nil on a system built by
// New; its fields are nil for disabled instruments.
func (s *System) Obs() *obs.Observer { return s.obs }

// ObsMetricsDelta flattens the registry into series-name -> value,
// subtracting the warmup baseline when one was taken, mirroring how
// Result reports steady-state counters. Nil when metrics are off.
func (s *System) ObsMetricsDelta() map[string]float64 {
	cur := s.obs.Registry.Values()
	if cur == nil || !s.baseline.taken {
		return cur
	}
	names := make([]string, 0, len(s.baseline.obsValues))
	for name := range s.baseline.obsValues {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur[name] -= s.baseline.obsValues[name]
	}
	return cur
}
