// Package obs is the simulator's observability layer: a metrics
// registry with Prometheus-style text exposition and JSON snapshots, a
// bounded in-memory tracer of typed simulation events with Chrome
// trace-event export, and a timeline of periodic metric samples.
//
// The paper's central claims are temporal: prefetches issue only when
// a channel would otherwise idle, the prefetch row-buffer hit rate
// approaches 100%, and pollution is bounded to one LRU way. End-of-run
// aggregates cannot show any of that; per-event timelines can. obs
// gives every simulator layer a uniform way to expose both.
//
// Design constraints, in order:
//
//   - Determinism. obs runs inside the event loop, so it obeys the
//     same rules memlint enforces on the simulation core: no wall
//     clock, no goroutines, no unordered map iteration. Identical
//     seeds produce byte-identical trace and metrics output.
//   - A disabled instrument costs one branch. Every hot-path hook is
//     a method on a possibly-nil receiver that returns immediately
//     when the instrument is off; components hold plain pointers and
//     never check a config flag themselves.
//   - Bounded memory. The tracer is a fixed-capacity ring: a long run
//     keeps the most recent events and counts what it dropped, so
//     tracing a billion-event run cannot exhaust the host.
//
// Export (file writes, JSON encoding) happens outside the event loop,
// at run boundaries or sampling checkpoints, never inside a scheduled
// callback.
package obs

import (
	"memsim/internal/sim"
)

// DefaultTraceEvents is the tracer ring capacity when the
// configuration does not specify one: large enough to hold several
// milliseconds of simulated channel activity, small enough (~3 MB) to
// be irrelevant next to the simulator's own footprint.
const DefaultTraceEvents = 1 << 16

// Config selects which instruments a run carries. The zero value
// disables all of them; a disabled observer adds one predictable
// branch per hook site.
type Config struct {
	// Metrics enables the registry: every layer registers its
	// counters, gauges, and histograms at system construction.
	Metrics bool
	// Trace enables the event tracer.
	Trace bool
	// TraceEvents is the ring capacity in events; zero means
	// DefaultTraceEvents.
	TraceEvents int
	// SampleEvery, when positive, records a timeline sample of all
	// registry values each time this much simulated time passes
	// (checked at the event loop's coarse sampling stride, so samples
	// land at the first opportunity after each boundary). Implies
	// Metrics.
	SampleEvery sim.Time
}

// Observer bundles the instruments of one run. Fields are nil when
// the corresponding instrument is disabled; all hot-path methods on
// them are nil-safe, so wiring code can pass them along unguarded.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer
	Timeline *Timeline
}

// New builds the observer for cfg. now supplies the simulated clock
// for instant events (typically sim.Scheduler.Now).
func New(cfg Config, now func() sim.Time) *Observer {
	o := &Observer{}
	if cfg.Metrics || cfg.SampleEvery > 0 {
		o.Registry = NewRegistry()
	}
	if cfg.Trace {
		n := cfg.TraceEvents
		if n <= 0 {
			n = DefaultTraceEvents
		}
		o.Tracer = NewTracer(n, now)
	}
	if cfg.SampleEvery > 0 {
		o.Timeline = NewTimeline(o.Registry, cfg.SampleEvery)
	}
	return o
}
