package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"memsim/internal/cache"
	"memsim/internal/channel"
	"memsim/internal/prefetch"
	"memsim/internal/workload"
)

// runProfile simulates a named benchmark profile on cfg for n
// measured instructions after an equal warmup.
func runProfile(t *testing.T, cfg Config, name string, n uint64) Result {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generator(0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxInstrs = n
	cfg.WarmupInstrs = 2 * n
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaseSystemRuns(t *testing.T) {
	res := runProfile(t, Base(), "gcc", 50_000)
	// The warmup milestone lands on a retire-cycle boundary, so the
	// measured count can undershoot by up to the retire width.
	if res.Instrs < 50_000-4 || res.Instrs > 50_000 {
		t.Fatalf("retired %d instructions, want ~50000", res.Instrs)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Fatalf("IPC = %v outside (0, 4]", res.IPC)
	}
	if res.L2.Accesses == 0 {
		t.Fatal("no L2 traffic recorded")
	}
}

func TestPerfectHierarchyOrdering(t *testing.T) {
	// Figure 1's structure: IPC(real) <= IPC(perfect L2) <= IPC(perfect mem).
	base := Base()
	real := runProfile(t, base, "equake", 60_000)

	pl2 := base
	pl2.PerfectL2 = true
	perfectL2 := runProfile(t, pl2, "equake", 60_000)

	pm := base
	pm.PerfectMem = true
	perfectMem := runProfile(t, pm, "equake", 60_000)

	// Allow a whisker of cycle-rounding slack between the two perfect
	// configurations.
	if !(real.IPC < perfectL2.IPC && perfectL2.IPC <= perfectMem.IPC*1.01) {
		t.Fatalf("IPC ordering broken: real %v, perfectL2 %v, perfectMem %v",
			real.IPC, perfectL2.IPC, perfectMem.IPC)
	}
	if perfectMem.IPC < 1.8 {
		t.Fatalf("perfect-memory IPC = %v, want near the sustained-IPC bound", perfectMem.IPC)
	}
}

func TestPrefetchingHelpsStreaming(t *testing.T) {
	base := Base()
	base.Mapping = "xor"
	noPF := runProfile(t, base, "swim", 120_000)

	tuned := base
	tuned.Prefetch = TunedPrefetch()
	withPF := runProfile(t, tuned, "swim", 120_000)

	if withPF.IPC <= noPF.IPC*1.05 {
		t.Fatalf("prefetching did not help swim: %v -> %v", noPF.IPC, withPF.IPC)
	}
	if withPF.L2MissRate() >= noPF.L2MissRate() {
		t.Fatalf("prefetching did not cut miss rate: %v -> %v", noPF.L2MissRate(), withPF.L2MissRate())
	}
	if withPF.Prefetch.Issued == 0 {
		t.Fatal("no prefetches issued")
	}
	if acc := withPF.PrefetchAccuracy(); acc < 0.5 {
		t.Fatalf("swim prefetch accuracy = %v, want high", acc)
	}
}

func TestUnscheduledPrefetchInflatesLatency(t *testing.T) {
	// Table 4: unscheduled FIFO prefetching raises the mean miss
	// latency by nearly an order of magnitude versus scheduled.
	cfg := Base()
	cfg.Mapping = "xor"
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.Policy = prefetch.FIFO
	sched := runProfile(t, cfg, "parser", 80_000)

	cfg.Prefetch.Scheduled = false
	unsched := runProfile(t, cfg, "parser", 80_000)

	clock := Base()
	_ = clock
	if unsched.Ctrl.MeanDemandLatency() < 2*sched.Ctrl.MeanDemandLatency() {
		t.Fatalf("unscheduled latency %v not clearly above scheduled %v",
			unsched.Ctrl.MeanDemandLatency(), sched.Ctrl.MeanDemandLatency())
	}
}

func TestXORMappingImprovesRowHits(t *testing.T) {
	// A smaller L2 reaches eviction steady state within the test
	// budget, so writebacks flow during measurement.
	base := Base()
	base.L2Size = 128 << 10
	baseRes := runProfile(t, base, "applu", 120_000)

	xor := base
	xor.Mapping = "xor"
	xorRes := runProfile(t, xor, "applu", 120_000)

	if xorRes.RowHitRate(channel.Demand) <= baseRes.RowHitRate(channel.Demand) {
		t.Fatalf("XOR read row-hit rate %v not above base %v",
			xorRes.RowHitRate(channel.Demand), baseRes.RowHitRate(channel.Demand))
	}
	if xorRes.IPC < baseRes.IPC {
		t.Fatalf("XOR mapping slowed applu: %v -> %v", baseRes.IPC, xorRes.IPC)
	}
}

func TestLRUInsertionBoundsPollution(t *testing.T) {
	// Table 3: with a low-accuracy benchmark, MRU insertion pollutes
	// the cache; LRU insertion must not be slower than MRU by much and
	// typically wins.
	cfg := Base()
	cfg.Mapping = "xor"
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.Insert = cache.MRU
	mru := runProfile(t, cfg, "vpr", 80_000)

	cfg.Prefetch.Insert = cache.LRU
	lru := runProfile(t, cfg, "vpr", 80_000)

	if lru.IPC < mru.IPC*0.95 {
		t.Fatalf("LRU insertion much slower than MRU on low-accuracy workload: %v vs %v", lru.IPC, mru.IPC)
	}
}

func TestBandwidthBoundSaturation(t *testing.T) {
	// An mcf-like workload must show high data-bus utilization and a
	// large L2 stall fraction.
	res := runProfile(t, Base(), "mcf", 60_000)
	if res.IPC > 0.5 {
		t.Fatalf("mcf IPC = %v, want heavily memory-bound", res.IPC)
	}
	if res.Ctrl.MaxDemandQueue < 2 {
		t.Fatalf("mcf never queued demands (max queue %d)", res.Ctrl.MaxDemandQueue)
	}
}

func TestResidentWorkloadFewMisses(t *testing.T) {
	// eon's working set fits the L2, but its slow background stream
	// takes over a million instructions to complete its first sweep,
	// so this test needs a longer warmup than the others.
	p, err := workload.ByName("eon")
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := p.Generator(0, false)
	cfg := Base()
	cfg.WarmupInstrs = 1_600_000
	cfg.MaxInstrs = 60_000
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.L2.Misses > res.Instrs/100 {
		t.Fatalf("eon L2 misses = %d over %d instrs; should be cache-resident",
			res.L2.Misses, res.Instrs)
	}
}

func TestDeterminism(t *testing.T) {
	a := runProfile(t, Tuned(), "facerec", 50_000)
	b := runProfile(t, Tuned(), "facerec", 50_000)
	if a.Cycles != b.Cycles || a.L2.Misses != b.L2.Misses || a.Prefetch.Issued != b.Prefetch.Issued {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSoftwarePrefetchPath(t *testing.T) {
	p, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := p.Generator(0, true) // emit software prefetches
	cfg := Base()
	cfg.Mapping = "xor"
	cfg.SoftwarePrefetch = true
	cfg.MaxInstrs = 80_000
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SWPrefetches == 0 {
		t.Fatal("no software prefetch fills issued")
	}

	// And with them discarded (the paper's default), none issue.
	gen2, _ := p.Generator(0, true)
	cfg.SoftwarePrefetch = false
	sys2, _ := New(cfg, gen2)
	res2, err := sys2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.SWPrefetches != 0 {
		t.Fatalf("discarded software prefetches still issued %d fills", res2.SWPrefetches)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := Base()
	cfg.PerfectL2 = true
	cfg.PerfectMem = true
	if err := cfg.Validate(); err == nil {
		t.Error("PerfectL2+PerfectMem accepted")
	}
	cfg = Base()
	cfg.L2Block = 32
	if err := cfg.Validate(); err == nil {
		t.Error("L2 block < L1 block accepted")
	}
	cfg = Base()
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.RegionBytes = 32
	if err := cfg.Validate(); err == nil {
		t.Error("region smaller than block accepted")
	}
}

// TestValidateOneEntryPerProblem: each problem is reported once, under
// the one field it concerns, not again under a field it constrains.
func TestValidateOneEntryPerProblem(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Channels", func(c *Config) { c.Channels = -1 }},
		{"DevicesPerChannel", func(c *Config) { c.DevicesPerChannel = -1 }},
		{"L1Block", func(c *Config) { c.L1Block = 96 }},
		{"L1Assoc", func(c *Config) { c.L1Assoc = 0 }},
		{"L2Size", func(c *Config) { c.L2Size = 3 << 20 }},
		{"ReorderWindow", func(c *Config) { c.SchedPolicy, c.ReorderWindow = "frfcfs-cap", 4096 }},
		{"Timing", func(c *Config) { c.Timing.Packet, c.Timing.ACT = 0, -1 }},
	} {
		cfg := Base()
		tc.set(&cfg)
		if got := rejectedFields(t, cfg.Validate()); len(got) != 1 || got[0] != tc.field {
			t.Errorf("%s: fields %v, want exactly [%s]", tc.field, got, tc.field)
		}
	}
}

// TestValidateAllocatesNothing: a passing Validate builds no error
// value, so the paper's configurations check without allocating.
func TestValidateAllocatesNothing(t *testing.T) {
	for name, cfg := range map[string]Config{"base": Base(), "tuned": Tuned()} {
		if allocs := testing.AllocsPerRun(10, func() {
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Validate made %v allocations, want 0", name, allocs)
		}
	}
}

func TestLargeBlocksRun(t *testing.T) {
	// The Table 1 sweep reaches 8KB blocks; make sure the machinery
	// holds together at the extreme.
	cfg := Base()
	cfg.L2Block = 8192
	res := runProfile(t, cfg, "ammp", 30_000)
	if res.Instrs < 30_000-4 || res.Instrs > 30_000 {
		t.Fatalf("retired %d, want ~30000", res.Instrs)
	}
	if res.L2.Misses == 0 {
		t.Fatal("no misses with 8KB blocks on ammp")
	}
}

func TestEightChannels(t *testing.T) {
	cfg := Base()
	cfg.Channels = 8
	cfg.DevicesPerChannel = 1
	cfg.L2Block = 256
	cfg.Mapping = "xor"
	res := runProfile(t, cfg, "swim", 60_000)
	if res.IPC <= 0 {
		t.Fatal("8-channel system produced no progress")
	}
}

func TestThrottleEngagesOnLowAccuracy(t *testing.T) {
	// A pure pointer chase over a huge footprint: region neighbours
	// are essentially never referenced, so accuracy collapses and the
	// throttle must engage.
	params := workload.Params{
		WorkingSet: 64 << 20, ResidentBytes: 64 << 10,
		MemFraction: 0.2, ChaseWeight: 0.8, DependentChase: true,
	}
	gen, err := workload.NewGenerator(params, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Base()
	cfg.Mapping = "xor"
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.ThrottleAccuracy = 0.2
	cfg.Prefetch.ThrottleWindow = 64
	cfg.MaxInstrs = 80_000
	cfg.WarmupInstrs = 160_000
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetch.ThrottledChecks == 0 {
		t.Fatalf("throttle never engaged (accuracy %v)", res.PrefetchAccuracy())
	}
}

func TestRunContextCancellation(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generator(0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Base()
	cfg.MaxInstrs = 200_000
	cfg.WarmupInstrs = 400_000
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextDeadline(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generator(0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Base()
	// A budget far larger than a millisecond of wall clock can simulate.
	cfg.MaxInstrs = 50_000_000
	cfg.WarmupInstrs = 100_000_000
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := sys.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
