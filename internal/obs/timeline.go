package obs

import (
	"encoding/json"
	"io"
	"sort"

	"memsim/internal/sim"
)

// Timeline records periodic snapshots of the registry's values over
// simulated time, turning end-of-run aggregates into trajectories:
// prefetch accuracy settling after warmup, queue depth under a
// bandwidth burst, row-hit rate as a working set turns over.
//
// Sampling is driven by the event loop's coarse stride (see
// sim.Scheduler.RunWhileSampled): MaybeSample is cheap enough to call
// every few thousand events, and records only when the configured
// interval has elapsed, so samples land at the first event boundary
// after each interval — deterministic, because event order is.
type Timeline struct {
	reg     *Registry
	every   sim.Time
	next    sim.Time
	samples []Sample
}

// Sample is one timeline point: every registry series at one instant.
type Sample struct {
	// At is the simulated time of the snapshot in picoseconds.
	At sim.Time `json:"at_ps"`
	// Values maps series name (with rendered labels) to value;
	// histograms appear as their _count and _sum series.
	Values map[string]float64 `json:"values"`
}

// NewTimeline samples reg every interval of simulated time.
func NewTimeline(reg *Registry, every sim.Time) *Timeline {
	return &Timeline{reg: reg, every: every, next: every}
}

// MaybeSample records a snapshot if the sampling interval has elapsed,
// reporting whether it did. Nil-safe.
func (t *Timeline) MaybeSample(now sim.Time) bool {
	if t == nil || now < t.next {
		return false
	}
	t.ForceSample(now)
	return true
}

// ForceSample records a snapshot unconditionally (run boundaries,
// checkpoint flushes) and re-arms the interval from now.
func (t *Timeline) ForceSample(now sim.Time) {
	if t == nil {
		return
	}
	t.samples = append(t.samples, Sample{At: now, Values: t.reg.Values()})
	t.next = now + t.every
}

// Samples returns the recorded points, oldest first.
func (t *Timeline) Samples() []Sample {
	if t == nil {
		return nil
	}
	return t.samples
}

// Deltas returns per-interval differences between consecutive samples
// (the first sample differenced against zero). For counter series
// this is the event rate per interval; gauge deltas are net movement.
func (t *Timeline) Deltas() []Sample {
	if t == nil {
		return nil
	}
	out := make([]Sample, len(t.samples))
	prev := map[string]float64{}
	for i, s := range t.samples {
		d := make(map[string]float64, len(s.Values))
		names := make([]string, 0, len(s.Values))
		for name := range s.Values {
			names = append(names, name)
		}
		// Order does not matter for building d, but deterministic
		// iteration keeps this loop honest under the simdeterminism
		// analyzer and costs nothing at sample granularity.
		sort.Strings(names)
		for _, name := range names {
			d[name] = s.Values[name] - prev[name]
		}
		out[i] = Sample{At: s.At, Values: d}
		prev = s.Values
	}
	return out
}

// timelineFile is the JSON layout of WriteJSON.
type timelineFile struct {
	IntervalPs sim.Time `json:"interval_ps"`
	Samples    []Sample `json:"samples"`
}

// WriteJSON emits the timeline as JSON. encoding/json sorts map keys,
// so output is byte-deterministic.
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if t == nil {
		return enc.Encode(timelineFile{})
	}
	return enc.Encode(timelineFile{IntervalPs: t.every, Samples: t.samples})
}

// MetricSnapshot is one series in a registry JSON snapshot.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Help   string            `json:"help,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Histogram payload.
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// Snapshot renders every series sorted by (name, labels).
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	ms := r.sorted()
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String(), Help: m.help}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		if m.kind == kindHistogram {
			s.Count = m.hist.n
			s.Sum = m.hist.sum
			s.Bounds, s.Buckets = m.hist.Buckets()
		} else {
			s.Value = m.fn()
		}
		out = append(out, s)
	}
	return out
}

// snapshotFile is the JSON layout of WriteJSON.
type snapshotFile struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// WriteJSON emits the registry snapshot as JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(snapshotFile{Metrics: r.Snapshot()})
}
