package memsim

import (
	"bytes"

	"testing"
	"testing/quick"
)

func TestPublicQuickRun(t *testing.T) {
	cfg := BaseConfig()
	cfg.MaxInstrs = 30_000
	cfg.WarmupInstrs = 30_000
	res, err := RunBenchmark(cfg, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Fatalf("IPC = %v", res.IPC)
	}
}

func TestTunedConfigPrefetches(t *testing.T) {
	cfg := TunedConfig()
	cfg.MaxInstrs = 60_000
	cfg.WarmupInstrs = 60_000
	res, err := RunBenchmark(cfg, "swim")
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetch.Issued == 0 {
		t.Fatal("tuned config issued no prefetches")
	}
}

func TestBenchmarkSuite(t *testing.T) {
	if len(Benchmarks()) != 26 {
		t.Fatalf("suite = %d benchmarks", len(Benchmarks()))
	}
	if len(Profiles()) != 26 {
		t.Fatalf("profiles = %d", len(Profiles()))
	}
	if _, err := Workload("nope", 0, BaseConfig()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTraceGenerator(t *testing.T) {
	ops := []Op{
		{NonMem: 10, Addr: 0x1000, Kind: Load},
		{NonMem: 10, Addr: 0x2000, Kind: Store},
		{NonMem: 10, Addr: 0x1000, Kind: Load},
	}
	cfg := BaseConfig()
	cfg.MaxInstrs = 0 // run the trace out
	res, err := Run(cfg, Trace(ops))
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs != 33 {
		t.Fatalf("retired %d instructions, want 33", res.Instrs)
	}
}

func TestCustomWorkload(t *testing.T) {
	params := WorkloadParams{
		WorkingSet: 4 << 20, ResidentBytes: 64 << 10,
		MemFraction: 0.2, StreamWeight: 1.0, Streams: 2, ElemBytes: 8, Coverage: 1.0,
	}
	gen, err := CustomWorkload(params, 42, BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaseConfig()
	cfg.MaxInstrs = 20_000
	res, err := Run(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if res.L2.Misses == 0 {
		t.Fatal("streaming custom workload produced no misses")
	}
}

// Property: any valid trace of bounded length runs to completion and
// retires exactly the trace's instruction count.
func TestPropertyTraceConservation(t *testing.T) {
	f := func(raw []uint32) bool {
		var ops []Op
		var want uint64
		for _, r := range raw {
			op := Op{
				NonMem: int(r % 8),
				Addr:   uint64(r) * 64,
			}
			switch r % 3 {
			case 0:
				op.Kind = Load
			case 1:
				op.Kind = Store
			default:
				op.Kind = SWPrefetch
			}
			op.DependsOnPrev = r%5 == 0
			ops = append(ops, op)
			want += op.Instructions()
		}
		cfg := BaseConfig()
		res, err := Run(cfg, Trace(ops))
		if err != nil {
			return false
		}
		return res.Instrs == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTraceFileRoundTripPublic(t *testing.T) {
	gen, err := Workload("gcc", 0, BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteTraceFile(&buf, gen, 5000)
	if err != nil || n != 5000 {
		t.Fatalf("wrote %d, err %v", n, err)
	}
	replay, err := ReadTraceFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaseConfig()
	cfg.MaxInstrs = 0
	res, err := Run(cfg, replay)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs == 0 {
		t.Fatal("replayed trace retired nothing")
	}
}
