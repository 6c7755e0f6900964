package core

import (
	"testing"
	"testing/quick"

	"memsim/internal/cache"
	"memsim/internal/prefetch"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

// TestPropertyNoDeadlock runs randomized valid configurations over a
// randomized workload and requires every simulation to terminate with
// exactly the requested instruction count. This is the system-level
// liveness property: no combination of block size, channel count,
// prefetch scheme, scheduling policy, reordering, or refresh may lose
// a wakeup or a fill.
func TestPropertyNoDeadlock(t *testing.T) {
	blockChoices := []int{64, 256, 1024, 4096}
	chanChoices := []int{1, 2, 4, 8}
	schemes := []string{"region", "sequential", "stream"}

	f := func(seed uint64, blockIdx, chanIdx, schemeIdx, knobs uint8) bool {
		cfg := Base()
		cfg.L2Block = blockChoices[int(blockIdx)%len(blockChoices)]
		cfg.Channels = chanChoices[int(chanIdx)%len(chanChoices)]
		cfg.DevicesPerChannel = max(1, 8/cfg.Channels)
		cfg.MaxInstrs = 20_000
		cfg.WarmupInstrs = 0
		if knobs&1 != 0 {
			cfg.Mapping = "xor"
		}
		if knobs&2 != 0 {
			cfg.Prefetch = TunedPrefetch()
			cfg.Prefetch.Scheme = schemes[int(schemeIdx)%len(schemes)]
			cfg.Prefetch.Lookahead = 4
			if cfg.Prefetch.Scheme == "region" && cfg.Prefetch.RegionBytes < cfg.L2Block {
				cfg.Prefetch.RegionBytes = cfg.L2Block
			}
			cfg.Prefetch.Scheduled = knobs&4 == 0
			cfg.Prefetch.Insert = cache.Positions[int(knobs>>3)%len(cache.Positions)]
			if knobs&32 != 0 {
				cfg.Prefetch.Policy = prefetch.FIFO
			}
		}
		if knobs&8 != 0 {
			cfg.SchedPolicy, cfg.ReorderWindow = "frfcfs-cap", 4
		}
		if knobs&16 != 0 {
			cfg.Refresh = true
		}
		if knobs&64 != 0 {
			cfg.ClosedPage = true
		}
		if err := cfg.Validate(); err != nil {
			return true // skip unrealizable combinations
		}

		params := workload.Params{
			WorkingSet: 8 << 20, ResidentBytes: 256 << 10,
			MemFraction: 0.15, StoreFraction: 0.2,
			StreamWeight: 0.4, ChaseWeight: 0.2, Streams: 2, ElemBytes: 16, Coverage: 0.8,
			DependentChase: seed%2 == 0, ResidentDependent: 0.3,
		}
		gen, err := workload.NewGenerator(params, seed, false)
		if err != nil {
			return false
		}
		sys, err := New(cfg, gen)
		if err != nil {
			return false
		}
		res, err := sys.Run()
		if err != nil {
			t.Logf("deadlock: cfg=%+v err=%v", cfg, err)
			return false
		}
		return res.Instrs == cfg.MaxInstrs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStatsConsistent checks cross-component accounting on a
// randomized run: every L2 demand miss must be answerable by a
// controller demand issue, a merge into an in-flight fill, or an MSHR
// merge; prefetch fills settle as used, evicted, or resident.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(seed uint64, hot uint8) bool {
		cfg := Tuned()
		cfg.MaxInstrs = 40_000
		cfg.WarmupInstrs = 0
		params := workload.Params{
			WorkingSet: 4 << 20, ResidentBytes: 128 << 10,
			MemFraction:  0.1 + float64(hot%10)/50,
			StreamWeight: 0.5, ChaseWeight: 0.1, Streams: 3, ElemBytes: 8, Coverage: 0.9,
			DependentChase: true,
		}
		gen, err := workload.NewGenerator(params, seed, false)
		if err != nil {
			return false
		}
		sys, err := New(cfg, gen)
		if err != nil {
			return false
		}
		res, err := sys.Run()
		if err != nil {
			return false
		}
		// Misses can exceed issues (MSHR and in-flight merges), but
		// never the other way around.
		if res.Ctrl.Issued[0] > res.L2.Misses {
			return false
		}
		// Prefetch issue/installation conservation: every issued
		// prefetch either installed a block or is still in flight at
		// the end (bounded slack).
		if res.L2.PrefetchFills > res.Prefetch.Issued {
			return false
		}
		return res.IPC > 0 && res.IPC <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRandomTraces drives the full system with arbitrary
// hand-rolled traces (the public-API surface a downstream user hits)
// and checks termination and instruction conservation.
func TestPropertyRandomTraces(t *testing.T) {
	f := func(raw []uint32) bool {
		var ops []trace.Op
		var want uint64
		for _, r := range raw {
			op := trace.Op{
				NonMem:        int(r % 5),
				Addr:          uint64(r%(1<<26)) * 61, // scattered, unaligned
				Kind:          trace.Kind(r % 3),
				DependsOnPrev: r%7 == 0,
			}
			ops = append(ops, op)
			want += op.Instructions()
		}
		cfg := Tuned()
		cfg.MaxInstrs = 0
		sys, err := New(cfg, trace.NewSlice(ops))
		if err != nil {
			return false
		}
		res, err := sys.Run()
		if err != nil {
			return false
		}
		return res.Instrs == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
