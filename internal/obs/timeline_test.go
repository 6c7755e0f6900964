package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"memsim/internal/sim"
)

// TestTimelineSampling checks interval gating: MaybeSample records
// only once the interval has elapsed and re-arms from the sample time.
func TestTimelineSampling(t *testing.T) {
	r := NewRegistry()
	ticks := 0
	r.CounterFunc("memsim_test_ticks", "t", func() float64 { return float64(ticks) })
	tl := NewTimeline(r, 100)
	if tl.MaybeSample(50) {
		t.Error("sampled before the first interval")
	}
	ticks++
	if !tl.MaybeSample(120) {
		t.Error("did not sample after the interval elapsed")
	}
	if tl.MaybeSample(180) {
		t.Error("resampled before the re-armed interval (next should be 220)")
	}
	ticks++
	tl.ForceSample(200)
	ss := tl.Samples()
	if len(ss) != 2 || ss[0].At != 120 || ss[1].At != 200 {
		t.Fatalf("samples = %+v, want at 120 and 200", ss)
	}
	if ss[0].Values["memsim_test_ticks"] != 1 || ss[1].Values["memsim_test_ticks"] != 2 {
		t.Errorf("sampled values = %v, %v", ss[0].Values, ss[1].Values)
	}
}

// TestNilTimeline checks the disabled path.
func TestNilTimeline(t *testing.T) {
	var tl *Timeline
	if tl.MaybeSample(10) {
		t.Error("nil timeline sampled")
	}
	tl.ForceSample(10)
	if tl.Samples() != nil {
		t.Error("nil timeline returned samples")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		IntervalPs sim.Time `json:"interval_ps"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil timeline JSON does not parse: %v", err)
	}
}
