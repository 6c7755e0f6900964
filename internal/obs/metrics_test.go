package obs

import (
	"strings"
	"testing"
)

// TestNilInstruments checks the disabled fast path: every instrument
// method on a nil receiver is a no-op, never a panic.
func TestNilInstruments(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram count/sum = %d/%v", h.Count(), h.Sum())
	}
	var r *Registry
	r.CounterFunc("x", "", func() float64 { return 1 })
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if r.Histogram("x", "", []float64{1}) != nil {
		t.Error("nil registry returned a live histogram")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
	if r.Values() != nil {
		t.Error("nil registry Values() non-nil")
	}
}

// TestHistogramBucketBoundaries pins the "le" bucket semantics: an
// observation equal to an upper bound lands in that bucket, the next
// representable value above it in the following one.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("memsim_test_hist", "t", []float64{1, 2, 4})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // v <= 1
		{1.0001, 1}, {2, 1}, // 1 < v <= 2
		{2.0001, 2}, {4, 2}, // 2 < v <= 4
		{4.0001, 3}, {1e9, 3}, // overflow bucket
	}
	for _, c := range cases {
		_, before := h.Buckets()
		h.Observe(c.v)
		_, after := h.Buckets()
		for i := range after {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if after[i] != want {
				t.Errorf("Observe(%v): bucket %d = %d, want %d", c.v, i, after[i], want)
			}
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
}

// TestHistogramPrometheusCumulative checks the exposition's cumulative
// bucket expansion against a hand-computed distribution.
func TestHistogramPrometheusCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("memsim_test_lat", "Latency.", []float64{10, 20})
	for _, v := range []float64{5, 10, 15, 25, 30} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP memsim_test_lat Latency.
# TYPE memsim_test_lat histogram
memsim_test_lat_bucket{le="10"} 2
memsim_test_lat_bucket{le="20"} 3
memsim_test_lat_bucket{le="+Inf"} 5
memsim_test_lat_sum 85
memsim_test_lat_count 5
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestPrometheusOrdering checks that series sort by (name, labels) and
// HELP/TYPE headers appear once per name.
func TestPrometheusOrdering(t *testing.T) {
	r := NewRegistry()
	// Registered out of order on purpose.
	r.CounterFunc("memsim_test_b", "B.", func() float64 { return 2 }, Label{"ch", "1"})
	r.GaugeFunc("memsim_test_a", "A.", func() float64 { return 9 })
	r.CounterFunc("memsim_test_b", "B.", func() float64 { return 1 }, Label{"ch", "0"})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP memsim_test_a A.
# TYPE memsim_test_a gauge
memsim_test_a 9
# HELP memsim_test_b B.
# TYPE memsim_test_b counter
memsim_test_b{ch="0"} 1
memsim_test_b{ch="1"} 2
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRegistryMisuse checks that wiring errors fail loudly at
// registration time.
func TestRegistryMisuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	zero := func() float64 { return 0 }
	r := NewRegistry()
	r.CounterFunc("memsim_ok", "x", zero, Label{"k", "v"})
	expectPanic("duplicate series", func() { r.CounterFunc("memsim_ok", "x", zero, Label{"k", "v"}) })
	expectPanic("kind conflict", func() { r.GaugeFunc("memsim_ok", "x", zero) })
	expectPanic("help conflict", func() { r.CounterFunc("memsim_ok", "y", zero, Label{"k", "w"}) })
	expectPanic("invalid name", func() { r.CounterFunc("0bad name", "x", zero) })
	expectPanic("invalid label key", func() { r.CounterFunc("memsim_ok2", "x", zero, Label{"bad key", "v"}) })
	expectPanic("empty bounds", func() { r.Histogram("memsim_h", "x", nil) })
	expectPanic("unsorted bounds", func() { r.Histogram("memsim_h", "x", []float64{2, 1}) })
}

// TestValuesFlattening checks the timeline/checkpoint view of the
// registry: scalars by series name, histograms as _count/_sum.
func TestValuesFlattening(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("memsim_test_c", "c", func() float64 { return 4 }, Label{"ch", "0"})
	h := r.Histogram("memsim_test_h", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(3)
	vs := r.Values()
	want := map[string]float64{
		`memsim_test_c{ch="0"}`: 4,
		"memsim_test_h_count":   2,
		"memsim_test_h_sum":     3.5,
	}
	for k, v := range want {
		if vs[k] != v {
			t.Errorf("Values[%q] = %v, want %v", k, vs[k], v)
		}
	}
	if len(vs) != len(want) {
		t.Errorf("Values has %d series, want %d", len(vs), len(want))
	}
}
