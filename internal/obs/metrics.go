package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Label is one metric dimension, e.g. {ctrl 0} or {class demand}.
// Labels distinguish instances of the same metric name (one counter
// per channel group, per access class, per cache level).
type Label struct {
	Key, Value string
}

// metricKind discriminates the registry's instrument types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String renders the Prometheus TYPE keyword.
func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v with bounds[i-1] < v <= bounds[i] (Prometheus "le"
// semantics — a value equal to an upper bound lands in that bucket),
// and counts[len(bounds)] holds everything above the last bound.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// Observe records one value. Nil-safe: one branch when the histogram
// is disabled.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.n++
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets returns the upper bounds and per-bucket (non-cumulative)
// counts; the final count has no bound (+Inf).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	return append([]float64(nil), h.bounds...), append([]uint64(nil), h.counts...)
}

// metric is one registry entry: a counter or gauge read from fn, or a
// histogram. fn reads its value lazily at export time, so layers
// expose the counters they already keep without touching their hot
// paths.
type metric struct {
	name   string
	help   string
	labels []Label
	lstr   string // rendered label string, the dedup key suffix
	kind   metricKind

	fn   func() float64
	hist *Histogram
}

// Registry holds a run's metrics. Registration happens once at system
// construction; the event loop then touches only the counters the
// layers keep anyway and the returned Histogram handles. Export
// iterates the registration slice in sorted order, never a map, so
// output is deterministic.
type Registry struct {
	metrics []*metric
	index   map[string]*metric // name+labels -> entry, for dup detection
	helps   map[string]string  // name -> help, for consistency checks
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric), helps: make(map[string]string)}
}

// renderLabels formats labels sorted by key as {k="v",...}; empty for
// no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// validName is the Prometheus metric/label identifier constraint.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register adds an entry, panicking on misuse: registration happens at
// wiring time with literal names, so a bad name, duplicate series, or
// kind/help mismatch is a programmer error, not an operational one.
func (r *Registry) register(m *metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	for _, l := range m.labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: metric %s: invalid label key %q", m.name, l.Key))
		}
	}
	m.lstr = renderLabels(m.labels)
	key := m.name + m.lstr
	if _, dup := r.index[key]; dup {
		panic(fmt.Sprintf("obs: duplicate metric series %s", key))
	}
	if prev, ok := r.helps[m.name]; ok && prev != m.help {
		panic(fmt.Sprintf("obs: metric %s registered with conflicting help strings", m.name))
	}
	for _, prev := range r.metrics {
		if prev.name == m.name && prev.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %s registered as both %v and %v", m.name, prev.kind, m.kind))
		}
	}
	r.helps[m.name] = m.help
	r.index[key] = m
	r.metrics = append(r.metrics, m)
}

// CounterFunc registers a counter series whose value is read from fn
// at export time. This is how layers expose counters they already
// keep in their Stats structs without double-counting on hot paths.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, labels: labels, kind: kindCounter, fn: fn})
}

// GaugeFunc registers a gauge series read from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, labels: labels, kind: kindGauge, fn: fn})
}

// Histogram registers a histogram series over the given ascending
// upper bounds and returns its handle.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s has no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly ascending at %v", name, bounds[i]))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.register(&metric{name: name, help: help, labels: labels, kind: kindHistogram, hist: h})
	return h
}

// sorted returns the entries ordered by (name, labels) for export.
func (r *Registry) sorted() []*metric {
	ms := append([]*metric(nil), r.metrics...)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].lstr < ms[j].lstr
	})
	return ms
}

// fmtFloat renders a value the way Prometheus text exposition expects:
// shortest representation that round-trips.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelsWith re-renders a label set with one extra pair (the
// histogram "le" label).
func labelsWith(labels []Label, extra Label) string {
	return renderLabels(append(append([]Label(nil), labels...), extra))
}

// WritePrometheus emits the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per metric name, series
// sorted by name then labels, histograms expanded into cumulative
// _bucket/_sum/_count series. Output is byte-deterministic for a given
// registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastName := ""
	for _, m := range r.sorted() {
		if m.name != lastName {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
			lastName = m.name
		}
		if m.kind != kindHistogram {
			fmt.Fprintf(&b, "%s%s %s\n", m.name, m.lstr, fmtFloat(m.fn()))
			continue
		}
		h := m.hist
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name,
				labelsWith(m.labels, Label{"le", fmtFloat(bound)}), cum)
		}
		cum += h.counts[len(h.bounds)]
		fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, labelsWith(m.labels, Label{"le", "+Inf"}), cum)
		fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, m.lstr, fmtFloat(h.sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.lstr, h.n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Values flattens the registry into series-name -> value. Histograms
// contribute _count and _sum entries. The timeline samples this, and
// checkpoint manifests carry deltas of it.
func (r *Registry) Values() map[string]float64 {
	if r == nil {
		return nil
	}
	vs := make(map[string]float64, len(r.metrics))
	for _, m := range r.metrics {
		if m.kind == kindHistogram {
			vs[m.name+"_count"+m.lstr] = float64(m.hist.n)
			vs[m.name+"_sum"+m.lstr] = m.hist.sum
			continue
		}
		vs[m.name+m.lstr] = m.fn()
	}
	return vs
}
