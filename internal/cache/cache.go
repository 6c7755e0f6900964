// Package cache implements the set-associative caches of the simulated
// memory hierarchy: LRU replacement with a configurable insertion
// position on the recency chain, writeback with write-allocate, and
// prefetch-accuracy bookkeeping.
//
// The insertion position is the mechanism of Section 4.1: prefetched
// blocks loaded with LRU priority can displace at most one way's worth
// of referenced data, bounding pollution when prefetch accuracy is low.
//
// A cache is two flat arrays, not one slice per set: lines holds
// NumSets×Assoc 8-byte lines, set s owning the Assoc-line run starting
// at s×Assoc, and occupied counts each set's resident lines. A set's
// resident lines lead its run, ordered from MRU to LRU, so recency
// updates shift lines within the run and building a cache costs three
// allocations whatever its size.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"memsim/internal/obs"
)

// InsertPos selects where a filled block lands on a set's recency
// chain: most-recently-used, second-most, second-least, or least.
type InsertPos int

// Insertion priorities, from highest (MRU) to lowest (LRU).
const (
	MRU InsertPos = iota
	SMRU
	SLRU
	LRU
)

// String names the insertion position.
func (p InsertPos) String() string {
	switch p {
	case MRU:
		return "MRU"
	case SMRU:
		return "SMRU"
	case SLRU:
		return "SLRU"
	case LRU:
		return "LRU"
	default:
		return fmt.Sprintf("InsertPos(%d)", int(p))
	}
}

// Positions lists all insertion priorities in chain order.
var Positions = []InsertPos{MRU, SMRU, SLRU, LRU}

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int64
	Assoc      int
	BlockBytes int
}

// Validate checks the configuration for realizability.
func (c Config) Validate() error {
	if c.BlockBytes <= 0 || bits.OnesCount64(uint64(c.BlockBytes)) != 1 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	if c.BlockBytes < minBlockBytes {
		return fmt.Errorf("cache %s: block size %d below %d bytes", c.Name, c.BlockBytes, minBlockBytes)
	}
	if c.Assoc <= 0 || c.Assoc > math.MaxUint16 {
		return fmt.Errorf("cache %s: associativity %d invalid", c.Name, c.Assoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%int64(c.Assoc*c.BlockBytes) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by assoc*block", c.Name, c.SizeBytes)
	}
	sets := c.NumSets()
	if sets == 0 || bits.OnesCount64(uint64(sets)) != 1 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// NumSets reports the number of sets.
func (c Config) NumSets() int { return int(c.SizeBytes) / (c.Assoc * c.BlockBytes) }

// line is one resident cache block: its block-aligned address, with
// the state flags in the low bits that the alignment leaves zero.
type line uint64

const (
	// lineDirty marks a modified block.
	lineDirty line = 1 << iota
	// linePrefetched marks a block filled by prefetch and not yet
	// demand-referenced.
	linePrefetched

	lineFlags = lineDirty | linePrefetched
	// minBlockBytes is the smallest block whose alignment leaves room
	// for the flags.
	minBlockBytes = int(lineFlags) + 1
)

func newLine(block uint64, dirty, prefetched bool) line {
	ln := line(block)
	if dirty {
		ln |= lineDirty
	}
	if prefetched {
		ln |= linePrefetched
	}
	return ln
}

func (l line) block() uint64       { return uint64(l &^ lineFlags) }
func (l line) dirty() bool         { return l&lineDirty != 0 }
func (l line) prefetched() bool    { return l&linePrefetched != 0 }
func (l line) holds(b uint64) bool { return l.block() == b }

// Victim describes a block evicted by Insert.
type Victim struct {
	Addr  uint64 // block-aligned address
	Dirty bool
	Valid bool // false when the fill used an empty way
	// Prefetched marks a victim that was prefetched and never
	// referenced — a wasted prefetch.
	Prefetched bool
}

// Stats counts cache activity. Demand statistics exclude prefetch
// fills and probes.
type Stats struct {
	Accesses uint64 // demand lookups
	Misses   uint64 // demand lookups that missed
	Writes   uint64 // demand lookups that were stores
	// Prefetch bookkeeping for accuracy measurement.
	PrefetchFills   uint64 // blocks inserted by the prefetcher
	PrefetchUsed    uint64 // prefetched blocks later demand-referenced
	PrefetchEvicted uint64 // prefetched blocks evicted unreferenced
	DirtyEvictions  uint64
	Evictions       uint64
}

// Delta returns the counters accumulated since base was captured.
func (s Stats) Delta(base Stats) Stats {
	return Stats{
		Accesses:        s.Accesses - base.Accesses,
		Misses:          s.Misses - base.Misses,
		Writes:          s.Writes - base.Writes,
		PrefetchFills:   s.PrefetchFills - base.PrefetchFills,
		PrefetchUsed:    s.PrefetchUsed - base.PrefetchUsed,
		PrefetchEvicted: s.PrefetchEvicted - base.PrefetchEvicted,
		DirtyEvictions:  s.DirtyEvictions - base.DirtyEvictions,
		Evictions:       s.Evictions - base.Evictions,
	}
}

// MissRate reports demand misses per demand access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// PrefetchAccuracy reports the fraction of settled prefetches (used or
// evicted) that were referenced before eviction.
func (s Stats) PrefetchAccuracy() float64 {
	settled := s.PrefetchUsed + s.PrefetchEvicted
	if settled == 0 {
		return 0
	}
	return float64(s.PrefetchUsed) / float64(settled)
}

// Cache is a set-associative, writeback, write-allocate cache model.
// It tracks tags and recency only; data contents are not simulated.
type Cache struct {
	cfg      Config
	lines    []line   // NumSets runs of Assoc lines, each MRU first
	occupied []uint16 // resident lines per set
	assoc    int
	setMask  uint64
	shift    uint
	stats    Stats

	// PrefetchUsedHook, if set, fires each time a demand access first
	// references a prefetched block (the prefetch accuracy throttle's
	// success signal).
	PrefetchUsedHook func()

	// tr, when attached, receives pollution events (see AttachTracer);
	// nil-safe when observability is off.
	tr *obs.Tracer
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.NumSets()
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, sets*cfg.Assoc),
		occupied: make([]uint16, sets),
		assoc:    cfg.Assoc,
		setMask:  uint64(sets - 1),
		shift:    uint(bits.TrailingZeros64(uint64(cfg.BlockBytes))),
	}, nil
}

// Config reports the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.BlockBytes) - 1)
}

func (c *Cache) setIndex(block uint64) uint64 { return (block >> c.shift) & c.setMask }

// ways returns set si's whole run of Assoc lines and how many of them
// are resident.
func (c *Cache) ways(si uint64) ([]line, int) {
	base := int(si) * c.assoc
	return c.lines[base : base+c.assoc], int(c.occupied[si])
}

// resident returns the resident lines of block's set, MRU first.
func (c *Cache) resident(block uint64) []line {
	set, n := c.ways(c.setIndex(block))
	return set[:n]
}

// Access performs a demand lookup, updating recency and statistics.
// On a hit the block moves to MRU; a write marks it dirty. It reports
// whether the block was present.
func (c *Cache) Access(addr uint64, write bool) bool {
	block := c.BlockAddr(addr)
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}
	set := c.resident(block)
	for i, ln := range set {
		if ln.holds(block) {
			if ln.prefetched() {
				ln &^= linePrefetched
				c.stats.PrefetchUsed++
				if c.PrefetchUsedHook != nil {
					c.PrefetchUsedHook()
				}
			}
			if write {
				ln |= lineDirty
			}
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = ln
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains reports whether the block holding addr is resident, without
// disturbing recency or statistics. The prefetch issue path uses it to
// drop resident candidates.
func (c *Cache) Contains(addr uint64) bool {
	block := c.BlockAddr(addr)
	for _, ln := range c.resident(block) {
		if ln.holds(block) {
			return true
		}
	}
	return false
}

// Insert fills the block containing addr at the given recency position,
// returning the victim (Valid=false when an empty way absorbed the
// fill). dirty marks the new block modified (write-allocate stores);
// prefetched tags it for accuracy accounting. Inserting a block that is
// already resident refreshes its position without eviction.
func (c *Cache) Insert(addr uint64, pos InsertPos, dirty, prefetched bool) Victim {
	block := c.BlockAddr(addr)
	si := c.setIndex(block)
	set, n := c.ways(si)
	if prefetched {
		c.stats.PrefetchFills++
	}

	// Already resident: reposition only (can happen when a demand fill
	// races a prefetch of the same block).
	for i, ln := range set[:n] {
		if ln.holds(block) {
			if dirty {
				ln |= lineDirty
			}
			if !prefetched {
				ln &^= linePrefetched
			}
			copy(set[i:n-1], set[i+1:n])
			insertAt(set, n-1, c.place(pos, n-1), ln)
			return Victim{}
		}
	}

	var victim Victim
	if n >= c.assoc {
		// Evict the LRU line.
		n--
		v := set[n]
		victim = Victim{Addr: v.block(), Dirty: v.dirty(), Valid: true, Prefetched: v.prefetched()}
		c.stats.Evictions++
		if v.dirty() {
			c.stats.DirtyEvictions++
		}
		if v.prefetched() {
			c.tr.Instant(obs.EvPollution, 0, v.block(), 0)
			c.stats.PrefetchEvicted++
		}
	}
	insertAt(set, n, c.place(pos, n), newLine(block, dirty, prefetched))
	c.occupied[si] = uint16(n + 1)
	return victim
}

// place converts an insertion priority to an index on a chain that will
// have n+1 entries after insertion.
func (c *Cache) place(pos InsertPos, n int) int {
	var idx int
	switch pos {
	case MRU:
		idx = 0
	case SMRU:
		idx = 1
	case SLRU:
		idx = c.assoc - 2
	case LRU:
		idx = c.assoc - 1
	default:
		panic(fmt.Sprintf("cache: invalid insert position %d", pos))
	}
	if idx < 0 {
		idx = 0
	}
	if idx > n {
		idx = n
	}
	return idx
}

// insertAt places ln at index i of the n-line chain set[:n], shifting
// the lines from i on one place toward LRU; set has room for n+1.
func insertAt(set []line, n, i int, ln line) {
	copy(set[i+1:n+1], set[i:n])
	set[i] = ln
}

// MarkDirty sets the dirty bit of a resident block without disturbing
// recency or demand statistics. Inner-cache writebacks absorbed by
// this cache use it. It reports whether the block was present.
func (c *Cache) MarkDirty(addr uint64) bool {
	block := c.BlockAddr(addr)
	set := c.resident(block)
	for i, ln := range set {
		if ln.holds(block) {
			set[i] |= lineDirty
			return true
		}
	}
	return false
}

// Invalidate removes the block containing addr, reporting whether it
// was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	block := c.BlockAddr(addr)
	si := c.setIndex(block)
	set, n := c.ways(si)
	for i, ln := range set[:n] {
		if ln.holds(block) {
			copy(set[i:n-1], set[i+1:n])
			c.occupied[si] = uint16(n - 1)
			return true, ln.dirty()
		}
	}
	return false, false
}

// ResidentBlocks reports how many valid blocks the cache holds.
func (c *Cache) ResidentBlocks() int {
	n := 0
	for _, f := range c.occupied {
		n += int(f)
	}
	return n
}

// CheckIntegrity validates the recency-chain structure of every set:
// occupancy within associativity, no duplicate lines, and every line
// aligned and indexed into the set its address selects. The paranoid
// invariant checker runs it periodically; a violation means the chain
// manipulation code corrupted the cache.
func (c *Cache) CheckIntegrity() error {
	for si := range c.occupied {
		set, n := c.ways(uint64(si))
		if n > c.assoc {
			return fmt.Errorf("cache %s: set %d holds %d lines, associativity %d",
				c.cfg.Name, si, n, c.assoc)
		}
		set = set[:n]
		for i, ln := range set {
			if got := c.setIndex(ln.block()); got != uint64(si) {
				return fmt.Errorf("cache %s: block %#x in set %d, maps to set %d",
					c.cfg.Name, ln.block(), si, got)
			}
			if ln.block() != c.BlockAddr(ln.block()) {
				return fmt.Errorf("cache %s: unaligned block %#x in set %d",
					c.cfg.Name, ln.block(), si)
			}
			for j := i + 1; j < len(set); j++ {
				if set[j].holds(ln.block()) {
					return fmt.Errorf("cache %s: block %#x duplicated in set %d (ways %d and %d)",
						c.cfg.Name, ln.block(), si, i, j)
				}
			}
		}
	}
	return nil
}
