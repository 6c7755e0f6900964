package memsim

import (
	"bytes"
	"testing"
)

// obsRun simulates a short prefetching workload with every instrument
// armed and returns the run plus its exported artifacts.
func obsRun(t *testing.T) (*System, []byte, []byte) {
	t.Helper()
	cfg := TunedConfig()
	cfg.MaxInstrs = 20_000
	cfg.WarmupInstrs = 40_000
	cfg.Obs = ObsConfig{Metrics: true, Trace: true, TraceEvents: 8192}
	gen, err := Workload("swim", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var trace, prom bytes.Buffer
	if err := sys.Obs().Tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := sys.Obs().Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return sys, trace.Bytes(), prom.Bytes()
}

// TestObservedRunDeterminism is the subsystem's end-to-end
// reproducibility check: two runs of the same seed produce
// byte-identical trace and metrics artifacts.
func TestObservedRunDeterminism(t *testing.T) {
	_, trace1, prom1 := obsRun(t)
	_, trace2, prom2 := obsRun(t)
	if !bytes.Equal(trace1, trace2) {
		t.Error("identical seeds produced different trace bytes")
	}
	if !bytes.Equal(prom1, prom2) {
		t.Error("identical seeds produced different metrics bytes")
	}
}

// TestObservationDoesNotPerturb checks the measurement itself: a fully
// instrumented run and a dark run report identical results.
func TestObservationDoesNotPerturb(t *testing.T) {
	run := func(obs ObsConfig) Result {
		cfg := TunedConfig()
		cfg.MaxInstrs = 20_000
		cfg.WarmupInstrs = 40_000
		cfg.Obs = obs
		gen, err := Workload("mcf", 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dark := run(ObsConfig{})
	lit := run(ObsConfig{Metrics: true, Trace: true, TraceEvents: 4096})
	if dark != lit {
		t.Errorf("instrumented run diverged from dark run:\ndark: %+v\nlit:  %+v", dark, lit)
	}
}

// TestObsMetricsDelta checks warmup-baseline subtraction: counters in
// the delta reflect only the measured phase.
func TestObsMetricsDelta(t *testing.T) {
	sys, _, _ := obsRun(t)
	d := sys.ObsMetricsDelta()
	if len(d) == 0 {
		t.Fatal("no metric deltas")
	}
	retired, ok := d["memsim_core_retired_total"]
	if !ok {
		t.Fatal("delta missing memsim_core_retired_total")
	}
	// The baseline snapshot lands on a retire-group boundary, so the
	// delta can straddle the budget by up to the core's retire width.
	if retired < 20_000-4 || retired > 20_000+4 {
		t.Errorf("retired delta = %v, want ~20000 measured instructions", retired)
	}
}
