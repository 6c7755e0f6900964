package cache

import (
	"testing"
	"testing/quick"
)

func newL2(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "l2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T) *Cache {
	t.Helper()
	// One set, 4 ways, 64B blocks: pure recency-chain behaviour.
	c, err := New(Config{Name: "tiny", SizeBytes: 256, Assoc: 4, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, Assoc: 4, BlockBytes: 48},       // non-power-of-two block
		{SizeBytes: 1024, Assoc: 0, BlockBytes: 64},       // zero assoc
		{SizeBytes: 1000, Assoc: 4, BlockBytes: 64},       // size not divisible
		{SizeBytes: 4 * 3 * 64, Assoc: 4, BlockBytes: 64}, // 3 sets
		{SizeBytes: 64, Assoc: 4, BlockBytes: 2},          // no room for line flags
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", cfg)
		}
	}
	good := Config{Name: "l1", SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.NumSets() != 512 {
		t.Errorf("NumSets = %d, want 512", good.NumSets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := newL2(t)
	if c.Access(0x1234, false) {
		t.Fatal("cold access hit")
	}
	c.Insert(0x1234, MRU, false, false)
	if !c.Access(0x1234, false) {
		t.Fatal("access after insert missed")
	}
	if !c.Access(0x123f, false) { // same 64B block
		t.Fatal("same-block access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Fatalf("stats = %d accesses %d misses, want 3/1", s.Accesses, s.Misses)
	}
}

func TestBlockAlignment(t *testing.T) {
	c := newL2(t)
	if got := c.BlockAddr(0x12f7); got != 0x12c0 {
		t.Fatalf("BlockAddr = %#x, want 0x12c0", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t)
	for i := uint64(0); i < 4; i++ {
		v := c.Insert(i*64, MRU, false, false)
		if v.Valid {
			t.Fatalf("eviction while filling empty ways: %+v", v)
		}
	}
	// Fifth insert evicts the least recently inserted block (0).
	v := c.Insert(4*64, MRU, false, false)
	if !v.Valid || v.Addr != 0 {
		t.Fatalf("victim = %+v, want block 0", v)
	}
	if c.Contains(0) {
		t.Fatal("evicted block still resident")
	}
}

func TestAccessPromotesToMRU(t *testing.T) {
	c := small(t)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*64, MRU, false, false)
	}
	c.Access(0, false) // promote block 0
	v := c.Insert(4*64, MRU, false, false)
	if v.Addr != 64 {
		t.Fatalf("victim = %#x, want block 1 (0 was promoted)", v.Addr)
	}
}

func TestDirtyVictim(t *testing.T) {
	c := small(t)
	c.Insert(0, MRU, false, false)
	c.Access(0, true) // store marks dirty
	for i := uint64(1); i < 5; i++ {
		c.Insert(i*64, MRU, false, false)
	}
	// Block 0 must have been evicted dirty.
	s := c.Stats()
	if s.DirtyEvictions != 1 {
		t.Fatalf("DirtyEvictions = %d, want 1", s.DirtyEvictions)
	}
}

func TestWriteAllocateDirtyInsert(t *testing.T) {
	c := small(t)
	c.Insert(0, MRU, true, false)
	for i := uint64(1); i < 5; i++ {
		c.Insert(i*64, MRU, false, false)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatal("dirty insert lost its dirty bit")
	}
}

func TestInsertPositions(t *testing.T) {
	// Fill 4 ways, then insert at each position and check which block
	// an eviction removes.
	cases := []struct {
		pos InsertPos
		// survivesN: number of subsequent MRU fills the positioned
		// block survives before eviction.
		survives int
	}{
		{MRU, 3}, {SMRU, 2}, {SLRU, 1}, {LRU, 0},
	}
	for _, tc := range cases {
		c := small(t)
		for i := uint64(0); i < 4; i++ {
			c.Insert(0x1000+i*64, MRU, false, false)
		}
		c.Insert(0x8000, tc.pos, false, false) // the probe block
		n := 0
		for i := uint64(0); c.Contains(0x8000); i++ {
			c.Insert(0x2000+i*64, MRU, false, false)
			if c.Contains(0x8000) {
				n++
			}
		}
		if n != tc.survives {
			t.Errorf("%v-inserted block survived %d fills, want %d", tc.pos, n, tc.survives)
		}
	}
}

func TestLRUInsertDisplacesAtMostOneWay(t *testing.T) {
	// Section 4.1: "if prefetches are loaded with LRU priority, they
	// can displace at most one quarter of the referenced data."
	c := small(t)
	for i := uint64(0); i < 4; i++ {
		c.Insert(0x1000+i*64, MRU, false, false)
	}
	// A stream of LRU-priority prefetches always evicts the previous
	// prefetch, never the referenced blocks.
	for i := uint64(0); i < 16; i++ {
		c.Insert(0x9000+i*64, LRU, false, true)
	}
	for i := uint64(1); i < 4; i++ {
		if !c.Contains(0x1000 + i*64) {
			t.Fatalf("referenced block %d displaced by LRU prefetches", i)
		}
	}
}

func TestPrefetchAccuracyAccounting(t *testing.T) {
	c := small(t)
	c.Insert(0, LRU, false, true)
	c.Insert(0x4000, LRU, false, true) // evicts the first (same set, LRU pos)
	c.Access(0x4000, false)            // use the second
	// Evict the used one too.
	for i := uint64(0); i < 4; i++ {
		c.Insert(0x10000+i*64, MRU, false, false)
	}
	s := c.Stats()
	if s.PrefetchFills != 2 {
		t.Fatalf("PrefetchFills = %d, want 2", s.PrefetchFills)
	}
	if s.PrefetchUsed != 1 {
		t.Fatalf("PrefetchUsed = %d, want 1", s.PrefetchUsed)
	}
	if s.PrefetchEvicted != 1 {
		t.Fatalf("PrefetchEvicted = %d, want 1", s.PrefetchEvicted)
	}
	if acc := s.PrefetchAccuracy(); acc != 0.5 {
		t.Fatalf("PrefetchAccuracy = %v, want 0.5", acc)
	}
}

func TestContainsDoesNotDisturb(t *testing.T) {
	c := small(t)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*64, MRU, false, false)
	}
	before := c.Stats()
	c.Contains(0) // LRU block; must not promote
	if got := c.Stats(); got != before {
		t.Fatal("Contains changed statistics")
	}
	v := c.Insert(4*64, MRU, false, false)
	if v.Addr != 0 {
		t.Fatalf("Contains promoted the LRU block: victim %#x", v.Addr)
	}
}

func TestInsertResidentRepositionsWithoutEviction(t *testing.T) {
	c := small(t)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*64, MRU, false, false)
	}
	v := c.Insert(0, MRU, false, false) // block 0 currently LRU
	if v.Valid {
		t.Fatalf("re-insert of resident block evicted %+v", v)
	}
	if c.ResidentBlocks() != 4 {
		t.Fatalf("ResidentBlocks = %d, want 4", c.ResidentBlocks())
	}
	// Block 0 is now MRU: next fill evicts block 1.
	v = c.Insert(4*64, MRU, false, false)
	if v.Addr != 64 {
		t.Fatalf("victim = %#x, want block 1", v.Addr)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Insert(0, MRU, false, false)
	c.Access(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v, want true,true", present, dirty)
	}
	if c.Contains(0) {
		t.Fatal("block present after invalidate")
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestSetIsolation(t *testing.T) {
	c := newL2(t)
	// Blocks mapping to different sets never evict each other.
	for i := uint64(0); i < 1000; i++ {
		c.Insert(i*64, MRU, false, false)
	}
	if c.ResidentBlocks() != 1000 {
		t.Fatalf("ResidentBlocks = %d, want 1000 (no conflict expected)", c.ResidentBlocks())
	}
}

func TestLargeBlocks(t *testing.T) {
	// 8KB blocks as in the pollution-point study.
	c, err := New(Config{Name: "l2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().NumSets() != 32 {
		t.Fatalf("NumSets = %d, want 32", c.Config().NumSets())
	}
	c.Insert(0x3333, MRU, false, false)
	if !c.Access(0x2fff, false) {
		t.Fatal("address in same 8KB block missed")
	}
}

// Property: resident blocks never exceed capacity, and the total of
// hits+misses equals accesses.
func TestPropertyOccupancyBounded(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := New(Config{Name: "p", SizeBytes: 4096, Assoc: 4, BlockBytes: 64})
		if err != nil {
			return false
		}
		hits := 0
		for _, op := range ops {
			addr := uint64(op) * 64
			if c.Access(addr, op%3 == 0) {
				hits++
			} else {
				c.Insert(addr, Positions[int(op)%len(Positions)], false, op%2 == 0)
			}
			if c.ResidentBlocks() > 64 {
				return false
			}
		}
		s := c.Stats()
		return s.Accesses == uint64(len(ops)) && s.Misses == s.Accesses-uint64(hits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: immediately after Insert, the block is resident; after its
// eviction it is not. Inclusion of the most recent insert holds for
// every insertion position.
func TestPropertyInsertThenContains(t *testing.T) {
	f := func(addr uint64, posRaw uint8) bool {
		c, err := New(Config{Name: "p", SizeBytes: 4096, Assoc: 4, BlockBytes: 64})
		if err != nil {
			return false
		}
		pos := Positions[int(posRaw)%len(Positions)]
		c.Insert(addr, pos, false, false)
		return c.Contains(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: prefetch accounting settles: fills = used + evicted +
// still-resident-unreferenced.
func TestPropertyPrefetchConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := New(Config{Name: "p", SizeBytes: 2048, Assoc: 4, BlockBytes: 64})
		if err != nil {
			return false
		}
		for _, op := range ops {
			addr := uint64(op%256) * 64
			switch op % 3 {
			case 0:
				if !c.Access(addr, false) {
					c.Insert(addr, MRU, false, false)
				}
			case 1:
				if !c.Contains(addr) {
					c.Insert(addr, LRU, false, true)
				}
			case 2:
				c.Access(addr, true)
			}
		}
		s := c.Stats()
		resident := uint64(0)
		for si := range c.occupied {
			set, n := c.ways(uint64(si))
			for _, ln := range set[:n] {
				if ln.prefetched() {
					resident++
				}
			}
		}
		return s.PrefetchFills == s.PrefetchUsed+s.PrefetchEvicted+resident
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
