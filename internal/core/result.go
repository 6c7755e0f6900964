package core

import (
	"memsim/internal/cache"
	"memsim/internal/channel"
	"memsim/internal/memctrl"
	"memsim/internal/prefetch"
	"memsim/internal/sim"
)

// Result is the measurement record of one run.
type Result struct {
	// Instrs and Cycles are retired instructions and elapsed core
	// cycles; IPC their ratio.
	Instrs uint64
	Cycles int64
	IPC    float64
	// Elapsed is the simulated wall time.
	Elapsed sim.Time

	// Raw component statistics. Channel and Ctrl aggregate over all
	// channel groups; Groups reports how many were summed (1 when the
	// channels are ganged).
	L1       cache.Stats
	L2       cache.Stats
	Channel  channel.Stats
	Ctrl     memctrl.Stats
	Prefetch prefetch.Stats
	// Buffer carries the separate prefetch buffer's counters when the
	// Section 5 buffer alternative is configured.
	Buffer cache.Stats
	Groups int

	// LateMerges counts demand misses that merged into in-flight
	// prefetches (late but useful prefetches).
	LateMerges uint64
	// PrefetchSkipped counts prefetch candidates dropped because the
	// block was already resident or in flight.
	PrefetchSkipped uint64
	// SWPrefetches counts software-prefetch fills requested.
	SWPrefetches uint64
}

// L2MissRate reports demand L2 misses per demand L2 access.
func (r Result) L2MissRate() float64 { return r.L2.MissRate() }

// MeanMissLatencyCycles reports the average demand miss latency in
// core cycles.
func (r Result) MeanMissLatencyCycles(clock sim.Clock) float64 {
	lat := r.Ctrl.MeanDemandLatency()
	return float64(lat) / float64(clock.Period())
}

// PrefetchAccuracy reports the fraction of settled prefetches that
// were referenced before eviction, counting late merges as uses.
func (r Result) PrefetchAccuracy() float64 {
	used := r.L2.PrefetchUsed + r.LateMerges
	settled := used + r.L2.PrefetchEvicted
	if settled == 0 {
		return 0
	}
	return float64(used) / float64(settled)
}

// RowHitRate reports the row-buffer hit rate for an access class.
func (r Result) RowHitRate(c channel.Class) float64 { return r.Channel.HitRate(c) }

// CommandUtilization reports mean command-bus occupancy over the run
// (averaged across channel groups).
func (r Result) CommandUtilization() float64 {
	g := max(r.Groups, 1)
	return r.Channel.CommandUtilization(r.Elapsed * sim.Time(g))
}

// DataUtilization reports mean data-bus occupancy over the run.
func (r Result) DataUtilization() float64 {
	g := max(r.Groups, 1)
	return r.Channel.DataUtilization(r.Elapsed * sim.Time(g))
}

// result snapshots the system's statistics after the core finishes,
// subtracting the warmup baseline when one was taken.
func (s *System) result() Result {
	b := &s.baseline
	elapsed := s.core.FinishTime() - b.at
	cycles := s.clock.ToCyclesCeil(elapsed)
	instrs := s.core.Stats().Retired - b.retired
	r := Result{
		Instrs:          instrs,
		Cycles:          cycles,
		Elapsed:         elapsed,
		L1:              s.l1.Stats().Delta(b.l1),
		L2:              s.l2.Stats().Delta(b.l2),
		Groups:          len(s.mem.ctrls),
		LateMerges:      s.lateMerges - b.lateMerges,
		PrefetchSkipped: s.prefetchSkipped - b.prefetchSkipped,
		SWPrefetches:    s.swPrefetches - b.swPrefetches,
	}
	chn, ctrl := s.mem.Stats()
	r.Channel, r.Ctrl = chn.Delta(b.chn), ctrl.Delta(b.ctrl)
	if cycles > 0 {
		r.IPC = float64(instrs) / float64(cycles)
	}
	if s.pf != nil {
		r.Prefetch = s.pf.Stats().Delta(b.pf)
	}
	if s.pfbuffer != nil {
		r.Buffer = s.pfbuffer.Stats().Delta(b.buffer)
	}
	return r
}
