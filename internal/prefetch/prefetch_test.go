package prefetch

import (
	"strings"
	"testing"
	"testing/quick"
)

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func cfg4K64(policy Policy) Config {
	return Config{RegionBytes: 4096, BlockBytes: 64, QueueDepth: 8, Policy: policy}
}

func noneResident(uint64) bool { return false }

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{RegionBytes: 3000, BlockBytes: 64, QueueDepth: 8},
		{RegionBytes: 4096, BlockBytes: 0, QueueDepth: 8},
		{RegionBytes: 64, BlockBytes: 128, QueueDepth: 8},
		{RegionBytes: 4096, BlockBytes: 64, QueueDepth: 0},
		{RegionBytes: 4096, BlockBytes: 64, QueueDepth: 8, ThrottleAccuracy: 1.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
	if got := cfg4K64(LIFO).BlocksPerRegion(); got != 64 {
		t.Errorf("BlocksPerRegion = %d, want 64", got)
	}
}

func TestMissCreatesRegionAndLinearOrder(t *testing.T) {
	// "A cache with 64-byte blocks and 4KB regions would fetch the
	// 64-byte block upon a miss, and then prefetch any of the 63 other
	// blocks in the surrounding 4KB region not already resident",
	// fetched "in linear order starting with the block after the
	// demand miss (and wrapped around)".
	e := newEngine(t, cfg4K64(LIFO))
	e.OnDemandMiss(0x10000+5*64, noneResident)
	var got []uint64
	for {
		a, ok := e.Next(nil)
		if !ok {
			break
		}
		got = append(got, a)
	}
	if len(got) != 63 {
		t.Fatalf("issued %d prefetches, want 63", len(got))
	}
	// Linear from block 6 upward, wrapping to 0..4.
	for i, a := range got {
		wantBlock := (5 + 1 + i) % 64
		if a != 0x10000+uint64(wantBlock*64) {
			t.Fatalf("prefetch %d = %#x, want block %d", i, a, wantBlock)
		}
	}
	if e.QueueLen() != 0 {
		t.Fatalf("queue not empty after exhaustion: %d", e.QueueLen())
	}
	s := e.Stats()
	if s.RegionsCompleted != 1 || s.Issued != 63 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestResidentBlocksSkipped(t *testing.T) {
	e := newEngine(t, Config{RegionBytes: 512, BlockBytes: 64, QueueDepth: 4, Policy: LIFO})
	resident := func(block uint64) bool { return block == 0x1080 || block == 0x1100 }
	e.OnDemandMiss(0x1000, resident)
	var got []uint64
	for {
		a, ok := e.Next(nil)
		if !ok {
			break
		}
		got = append(got, a)
		if a == 0x1080 || a == 0x1100 {
			t.Fatalf("prefetched resident block %#x", a)
		}
	}
	if len(got) != 5 { // 8 blocks - miss - 2 resident
		t.Fatalf("issued %d, want 5", len(got))
	}
}

func TestMissWithinQueuedRegionMarksBlock(t *testing.T) {
	e := newEngine(t, Config{RegionBytes: 256, BlockBytes: 64, QueueDepth: 4, Policy: LIFO})
	e.OnDemandMiss(0x2000, noneResident)
	e.OnDemandMiss(0x2040, noneResident) // second block of same region
	var got []uint64
	for {
		a, ok := e.Next(nil)
		if !ok {
			break
		}
		got = append(got, a)
	}
	if len(got) != 2 {
		t.Fatalf("issued %v, want the two untouched blocks", got)
	}
	for _, a := range got {
		if a == 0x2000 || a == 0x2040 {
			t.Fatalf("prefetched demand-fetched block %#x", a)
		}
	}
	if e.Stats().RegionsCreated != 1 {
		t.Fatalf("RegionsCreated = %d, want 1 (second miss matched)", e.Stats().RegionsCreated)
	}
}

func TestFIFOIssuesOldestFirst(t *testing.T) {
	e := newEngine(t, Config{RegionBytes: 128, BlockBytes: 64, QueueDepth: 4, Policy: FIFO})
	e.OnDemandMiss(0x1000, noneResident)
	e.OnDemandMiss(0x2000, noneResident)
	a, ok := e.Next(nil)
	if !ok || a != 0x1040 {
		t.Fatalf("first prefetch = %#x,%v, want oldest region block 0x1040", a, ok)
	}
}

func TestLIFOIssuesNewestFirst(t *testing.T) {
	e := newEngine(t, Config{RegionBytes: 128, BlockBytes: 64, QueueDepth: 4, Policy: LIFO})
	e.OnDemandMiss(0x1000, noneResident)
	e.OnDemandMiss(0x2000, noneResident)
	a, ok := e.Next(nil)
	if !ok || a != 0x2040 {
		t.Fatalf("first prefetch = %#x,%v, want newest region block 0x2040", a, ok)
	}
}

func TestLIFORepromotion(t *testing.T) {
	// "an LRU prioritization algorithm that moves queued regions back
	// to the highest-priority position on a demand miss within that
	// region".
	e := newEngine(t, Config{RegionBytes: 256, BlockBytes: 64, QueueDepth: 4, Policy: LIFO})
	e.OnDemandMiss(0x1000, noneResident)
	e.OnDemandMiss(0x2000, noneResident) // region 2 now head
	e.OnDemandMiss(0x1040, noneResident) // miss in region 1: promote
	a, ok := e.Next(nil)
	if !ok || a < 0x1000 || a >= 0x1100 {
		t.Fatalf("after promotion, first prefetch = %#x, want region 1", a)
	}
	if e.Stats().Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", e.Stats().Promotions)
	}
}

func TestFIFOReplacesOldest(t *testing.T) {
	e := newEngine(t, Config{RegionBytes: 128, BlockBytes: 64, QueueDepth: 2, Policy: FIFO})
	e.OnDemandMiss(0x1000, noneResident)
	e.OnDemandMiss(0x2000, noneResident)
	e.OnDemandMiss(0x3000, noneResident) // replaces region 1 (oldest)
	var got []uint64
	for {
		a, ok := e.Next(nil)
		if !ok {
			break
		}
		got = append(got, a)
	}
	for _, a := range got {
		if a >= 0x1000 && a < 0x1080 {
			t.Fatalf("replaced region still issued %#x", a)
		}
	}
	if e.Stats().RegionsReplaced != 1 {
		t.Fatalf("RegionsReplaced = %d, want 1", e.Stats().RegionsReplaced)
	}
}

func TestLIFOReplacesTail(t *testing.T) {
	e := newEngine(t, Config{RegionBytes: 128, BlockBytes: 64, QueueDepth: 2, Policy: LIFO})
	e.OnDemandMiss(0x1000, noneResident)
	e.OnDemandMiss(0x2000, noneResident)
	// Promote region 1 so region 2 is the tail.
	e.OnDemandMiss(0x1040, noneResident)
	// Hmm: that marks 0x1040 done and completes region 1 (2 blocks).
	// Recreate a clean three-region scenario instead.
	e = newEngine(t, Config{RegionBytes: 256, BlockBytes: 64, QueueDepth: 2, Policy: LIFO})
	e.OnDemandMiss(0x1000, noneResident)
	e.OnDemandMiss(0x2000, noneResident)
	e.OnDemandMiss(0x1040, noneResident) // promote region 1; region 2 at tail
	e.OnDemandMiss(0x3000, noneResident) // replaces tail (region 2)
	var got []uint64
	for {
		a, ok := e.Next(nil)
		if !ok {
			break
		}
		got = append(got, a)
	}
	for _, a := range got {
		if a >= 0x2000 && a < 0x2100 {
			t.Fatalf("replaced tail region still issued %#x", a)
		}
	}
}

func TestBankAwarePrefersOpenRow(t *testing.T) {
	// "the row-buffer hit rate of prefetches can be improved by giving
	// highest priority to regions that map to open Rambus rows."
	e := newEngine(t, Config{RegionBytes: 128, BlockBytes: 64, QueueDepth: 4, Policy: LIFO, BankAware: true})
	e.OnDemandMiss(0x1000, noneResident)
	e.OnDemandMiss(0x2000, noneResident) // head under LIFO
	openRow := func(block uint64) bool { return block >= 0x1000 && block < 0x1080 }
	a, ok := e.Next(openRow)
	if !ok || a != 0x1040 {
		t.Fatalf("bank-aware pick = %#x, want open-row region block 0x1040", a)
	}
	if e.Stats().BankAwarePicks != 1 {
		t.Fatalf("BankAwarePicks = %d, want 1", e.Stats().BankAwarePicks)
	}
	// With no open rows anywhere, strict priority order applies.
	a, ok = e.Next(func(uint64) bool { return false })
	if !ok || a != 0x2040 {
		t.Fatalf("fallback pick = %#x, want head region block 0x2040", a)
	}
}

func TestEmptyQueue(t *testing.T) {
	e := newEngine(t, cfg4K64(LIFO))
	if _, ok := e.Next(nil); ok {
		t.Fatal("Next on empty queue returned a prefetch")
	}
}

func TestFullyResidentRegionNotQueued(t *testing.T) {
	e := newEngine(t, Config{RegionBytes: 128, BlockBytes: 64, QueueDepth: 4, Policy: LIFO})
	e.OnDemandMiss(0x1000, func(uint64) bool { return true })
	if e.QueueLen() != 0 {
		t.Fatal("fully resident region was queued")
	}
	if e.Stats().RegionsCompleted != 1 {
		t.Fatalf("RegionsCompleted = %d, want 1", e.Stats().RegionsCompleted)
	}
}

func TestThrottleEngagesAndReleases(t *testing.T) {
	e := newEngine(t, Config{
		RegionBytes: 128, BlockBytes: 64, QueueDepth: 4, Policy: LIFO,
		ThrottleAccuracy: 0.5, ThrottleWindow: 4,
	})
	e.OnDemandMiss(0x1000, noneResident)
	// Window of 4 settled prefetches, 1 used: 25% accuracy -> throttle.
	for i := 0; i < 3; i++ {
		e.RecordSettled(false)
	}
	e.RecordSettled(true)
	if !e.Throttled() {
		t.Fatal("throttle did not engage at 25% accuracy")
	}
	if _, ok := e.Next(nil); ok {
		t.Fatal("throttled engine issued a prefetch")
	}
	if e.Stats().ThrottledChecks != 1 {
		t.Fatalf("ThrottledChecks = %d", e.Stats().ThrottledChecks)
	}
	// A good window releases it.
	for i := 0; i < 4; i++ {
		e.RecordSettled(true)
	}
	if e.Throttled() {
		t.Fatal("throttle did not release at 100% accuracy")
	}
	if _, ok := e.Next(nil); !ok {
		t.Fatal("released engine refused to issue")
	}
}

func TestThrottleDisabledByDefault(t *testing.T) {
	e := newEngine(t, cfg4K64(LIFO))
	for i := 0; i < 1000; i++ {
		e.RecordSettled(false)
	}
	if e.Throttled() {
		t.Fatal("throttle engaged with ThrottleAccuracy = 0")
	}
}

// Property: the engine never issues the same block twice, never issues
// the demand-miss block, never issues a resident block, and issues at
// most BlocksPerRegion-1 prefetches per region created.
func TestPropertyNoDuplicateIssue(t *testing.T) {
	f := func(misses []uint16, residentSeed uint8) bool {
		e, err := New(Config{RegionBytes: 512, BlockBytes: 64, QueueDepth: 4, Policy: LIFO})
		if err != nil {
			return false
		}
		// Issued prefetches land in the cache, so a later re-created
		// region must see them as resident — exactly how the engine
		// avoids duplicates in the real system.
		issued := make(map[uint64]int)
		alwaysResident := func(block uint64) bool {
			return (block>>6)%8 == uint64(residentSeed%8)
		}
		resident := func(block uint64) bool {
			return alwaysResident(block) || issued[block] > 0
		}
		for _, m := range misses {
			addr := uint64(m) * 64
			e.OnDemandMiss(addr, resident)
			// Drain a couple of prefetches, interleaved like idle slots.
			for i := 0; i < 2; i++ {
				a, ok := e.Next(nil)
				if !ok {
					break
				}
				issued[a]++
				if issued[a] > 1 || alwaysResident(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: queue length never exceeds depth.
func TestPropertyQueueBounded(t *testing.T) {
	f := func(misses []uint16, depth uint8) bool {
		d := int(depth%8) + 1
		e, err := New(Config{RegionBytes: 256, BlockBytes: 64, QueueDepth: d, Policy: LIFO})
		if err != nil {
			return false
		}
		for _, m := range misses {
			e.OnDemandMiss(uint64(m)*64, noneResident)
			if e.QueueLen() > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: regions settle exactly: created = completed + replaced +
// still queued.
func TestPropertyRegionConservation(t *testing.T) {
	f := func(misses []uint16, drains []bool) bool {
		e, err := New(Config{RegionBytes: 256, BlockBytes: 64, QueueDepth: 3, Policy: FIFO})
		if err != nil {
			return false
		}
		di := 0
		for _, m := range misses {
			e.OnDemandMiss(uint64(m)*64, noneResident)
			if di < len(drains) && drains[di] {
				e.Next(nil)
			}
			di++
		}
		s := e.Stats()
		return s.RegionsCreated == s.RegionsCompleted+s.RegionsReplaced+uint64(e.QueueLen())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a nil resident callback builds the same engine as one that
// reports nothing resident: the same queued regions with the same
// pending counts, and the same Next order.
func TestNilResidentMatchesNoneResident(t *testing.T) {
	f := func(misses []uint16, drains []bool, lifo bool) bool {
		cfg := Config{RegionBytes: 512, BlockBytes: 64, QueueDepth: 4, Policy: FIFO}
		if lifo {
			cfg.Policy = LIFO
		}
		nilEng, _ := New(cfg)
		noneEng, _ := New(cfg)
		for i, m := range misses {
			nilEng.OnDemandMiss(uint64(m)*64, nil)
			noneEng.OnDemandMiss(uint64(m)*64, noneResident)
			if len(nilEng.queue) != len(noneEng.queue) {
				return false
			}
			for qi, r := range nilEng.queue {
				if q := noneEng.queue[qi]; r.base != q.base || r.pending != q.pending {
					return false
				}
			}
			if i < len(drains) && drains[i] {
				a, ok := nilEng.Next(nil)
				b, okB := noneEng.Next(nil)
				if a != b || ok != okB {
					return false
				}
			}
		}
		return nilEng.Stats() == noneEng.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCheckIntegrityDuplicateRegion checks that a region queued twice
// is reported.
func TestCheckIntegrityDuplicateRegion(t *testing.T) {
	e := newEngine(t, cfg4K64(LIFO))
	e.OnDemandMiss(0x1000, nil)
	e.OnDemandMiss(0x3000, nil)
	if err := e.CheckIntegrity(); err != nil {
		t.Fatalf("healthy engine: %v", err)
	}
	e.queue = append(e.queue, e.queue[1])
	err := e.CheckIntegrity()
	if err == nil || !strings.Contains(err.Error(), "already queued") {
		t.Fatalf("duplicate region not reported: %v", err)
	}
}
