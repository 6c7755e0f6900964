package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLine and refCache are the reference model the flat cache is
// checked against: the plain slice-of-slices LRU, one slice per set
// ordered MRU first, with the same statistics.
type refLine struct {
	block             uint64
	dirty, prefetched bool
}

type refCache struct {
	cfg   Config
	sets  [][]refLine
	stats Stats
	used  int // PrefetchUsedHook calls
}

func newRefCache(cfg Config) *refCache {
	return &refCache{cfg: cfg, sets: make([][]refLine, cfg.NumSets())}
}

func (r *refCache) block(addr uint64) uint64 { return addr &^ uint64(r.cfg.BlockBytes-1) }

func (r *refCache) set(block uint64) *[]refLine {
	return &r.sets[(block/uint64(r.cfg.BlockBytes))%uint64(len(r.sets))]
}

func (r *refCache) find(block uint64) (*[]refLine, int) {
	set := r.set(block)
	for i, ln := range *set {
		if ln.block == block {
			return set, i
		}
	}
	return set, -1
}

func (r *refCache) remove(set *[]refLine, i int) refLine {
	ln := (*set)[i]
	*set = append((*set)[:i:i], (*set)[i+1:]...)
	return ln
}

func (r *refCache) insertAt(set *[]refLine, pos InsertPos, ln refLine) {
	idx := map[InsertPos]int{MRU: 0, SMRU: 1, SLRU: r.cfg.Assoc - 2, LRU: r.cfg.Assoc - 1}[pos]
	idx = min(max(idx, 0), len(*set))
	s := append([]refLine{}, (*set)[:idx]...)
	s = append(s, ln)
	*set = append(s, (*set)[idx:]...)
}

func (r *refCache) access(addr uint64, write bool) bool {
	block := r.block(addr)
	r.stats.Accesses++
	if write {
		r.stats.Writes++
	}
	set, i := r.find(block)
	if i < 0 {
		r.stats.Misses++
		return false
	}
	ln := r.remove(set, i)
	if ln.prefetched {
		ln.prefetched = false
		r.stats.PrefetchUsed++
		r.used++
	}
	ln.dirty = ln.dirty || write
	r.insertAt(set, MRU, ln)
	return true
}

func (r *refCache) insert(addr uint64, pos InsertPos, dirty, prefetched bool) Victim {
	block := r.block(addr)
	if prefetched {
		r.stats.PrefetchFills++
	}
	set, i := r.find(block)
	if i >= 0 {
		ln := r.remove(set, i)
		ln.dirty = ln.dirty || dirty
		ln.prefetched = ln.prefetched && prefetched
		r.insertAt(set, pos, ln)
		return Victim{}
	}
	var v Victim
	if len(*set) == r.cfg.Assoc {
		old := r.remove(set, len(*set)-1)
		v = Victim{Addr: old.block, Dirty: old.dirty, Valid: true, Prefetched: old.prefetched}
		r.stats.Evictions++
		if old.dirty {
			r.stats.DirtyEvictions++
		}
		if old.prefetched {
			r.stats.PrefetchEvicted++
		}
	}
	r.insertAt(set, pos, refLine{block: block, dirty: dirty, prefetched: prefetched})
	return v
}

func (r *refCache) markDirty(addr uint64) bool {
	set, i := r.find(r.block(addr))
	if i < 0 {
		return false
	}
	(*set)[i].dirty = true
	return true
}

func (r *refCache) invalidate(addr uint64) (present, dirty bool) {
	set, i := r.find(r.block(addr))
	if i < 0 {
		return false, false
	}
	return true, r.remove(set, i).dirty
}

func (r *refCache) contains(addr uint64) bool {
	_, i := r.find(r.block(addr))
	return i >= 0
}

// chains renders every set of c, MRU first, in the reference's terms.
func chains(c *Cache) [][]refLine {
	out := make([][]refLine, len(c.occupied))
	for si := range c.occupied {
		set, n := c.ways(uint64(si))
		for _, ln := range set[:n] {
			out[si] = append(out[si], refLine{block: ln.block(), dirty: ln.dirty(), prefetched: ln.prefetched()})
		}
	}
	return out
}

// TestFlatCacheMatchesReference drives the flat cache and the
// slice-of-slices reference with the same random operation sequences —
// demand accesses, fills at all four insertion positions, absorbed
// writebacks, invalidations and probes — over a spread of shapes, and
// demands identical answers, victims, statistics, hook calls and
// recency chains.
func TestFlatCacheMatchesReference(t *testing.T) {
	shapes := []Config{
		{Name: "direct", SizeBytes: 1024, Assoc: 1, BlockBytes: 64},
		{Name: "2way", SizeBytes: 2048, Assoc: 2, BlockBytes: 64},
		{Name: "4way", SizeBytes: 4096, Assoc: 4, BlockBytes: 64},
		{Name: "8way", SizeBytes: 2048, Assoc: 8, BlockBytes: 32},
		{Name: "full", SizeBytes: 16 * 128, Assoc: 16, BlockBytes: 128},
		{Name: "tiny-blocks", SizeBytes: 64, Assoc: 4, BlockBytes: 4},
	}
	for _, cfg := range shapes {
		for seed := int64(0); seed < 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.Name, seed), func(t *testing.T) {
				compareWithReference(t, cfg, seed, 2000)
			})
		}
	}
}

func compareWithReference(t *testing.T, cfg Config, seed int64, nops int) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	c.PrefetchUsedHook = func() { used++ }
	ref := newRefCache(cfg)
	rng := rand.New(rand.NewSource(seed))
	// Three blocks' worth of candidates per way keeps sets contended.
	span := uint64(cfg.NumSets() * cfg.Assoc * 3)
	for op := 0; op < nops; op++ {
		addr := uint64(rng.Int63n(int64(span)))*uint64(cfg.BlockBytes) + uint64(rng.Intn(cfg.BlockBytes))
		var got, want string
		switch k := rng.Intn(6); k {
		case 0, 1:
			write := rng.Intn(3) == 0
			got = fmt.Sprint(c.Access(addr, write))
			want = fmt.Sprint(ref.access(addr, write))
		case 2:
			pos := Positions[rng.Intn(len(Positions))]
			dirty, pf := rng.Intn(4) == 0, rng.Intn(2) == 0
			got = fmt.Sprintf("%+v", c.Insert(addr, pos, dirty, pf))
			want = fmt.Sprintf("%+v", ref.insert(addr, pos, dirty, pf))
		case 3:
			got = fmt.Sprint(c.MarkDirty(addr))
			want = fmt.Sprint(ref.markDirty(addr))
		case 4:
			if rng.Intn(4) != 0 {
				continue // invalidations are rarer than fills
			}
			p, d := c.Invalidate(addr)
			rp, rd := ref.invalidate(addr)
			got, want = fmt.Sprint(p, d), fmt.Sprint(rp, rd)
		case 5:
			got = fmt.Sprint(c.Contains(addr))
			want = fmt.Sprint(ref.contains(addr))
		}
		if got != want {
			t.Fatalf("op %d at %#x: flat %s, reference %s", op, addr, got, want)
		}
		if c.Stats() != ref.stats || used != ref.used {
			t.Fatalf("op %d: stats %+v (hook %d), reference %+v (hook %d)", op, c.Stats(), used, ref.stats, ref.used)
		}
	}
	gotChains := chains(c)
	for si, set := range ref.sets {
		if fmt.Sprint(gotChains[si]) != fmt.Sprint(set) {
			t.Fatalf("set %d chain %v, reference %v", si, gotChains[si], set)
		}
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestNewAllocations pins cache construction at three allocations —
// the Cache, its line array and its per-set counts — whatever the size.
func TestNewAllocations(t *testing.T) {
	cfg := Config{Name: "l2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64}
	if got := testing.AllocsPerRun(10, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Fatalf("New made %v allocations, want at most 3", got)
	}
}
