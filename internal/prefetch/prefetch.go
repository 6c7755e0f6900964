// Package prefetch implements the paper's scheduled region prefetch
// engine (Section 4): on a demand L2 miss, the blocks of an aligned
// region surrounding the miss that are not already cached are queued
// for prefetching, to be issued only when the Rambus channels would
// otherwise be idle.
//
// The prefetch queue holds a fixed number of region entries, each a
// bitmap with one bit per block; a bit is set when the block is being
// prefetched or already resident. Two prioritization policies are
// provided:
//
//   - FIFO: the oldest region issues first and is also the one replaced
//     by a new demand miss. Under bandwidth pressure this spends most
//     of its time prefetching from stale regions (Section 4.2).
//   - LIFO: the most recently added region issues first, a demand miss
//     within a queued region re-promotes it to the head, and
//     replacement takes the tail. This is the paper's tuned policy.
//
// Bank-aware scheduling gives highest priority to regions whose next
// block maps to an open DRAM row, making the prefetch row-buffer hit
// rate nearly 100%.
//
// The engine also implements the accuracy throttle the paper sketches
// in Sections 4.4 and 6: on-line accuracy counters can suppress
// prefetch issue when measured accuracy falls below a threshold.
package prefetch

import (
	"fmt"
	"math/bits"

	"memsim/internal/obs"
)

// Policy selects the region prioritization and replacement discipline.
type Policy int

// Prioritization policies.
const (
	// FIFO issues from the oldest region and replaces the oldest.
	FIFO Policy = iota
	// LIFO issues from the most recently touched region, re-promotes a
	// region on a demand miss within it, and replaces the tail.
	LIFO
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case LIFO:
		return "LIFO"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes the engine.
type Config struct {
	// RegionBytes is the aligned region size; the paper finds 4KB best
	// (improvement drops below 2KB, and regions beyond the 8KB virtual
	// page are not useful with physical addresses).
	RegionBytes int
	// BlockBytes is the L2 block size; one bitmap bit covers one block.
	BlockBytes int
	// QueueDepth is the number of region entries held.
	QueueDepth int
	// Policy selects FIFO or LIFO prioritization.
	Policy Policy
	// BankAware prefers regions whose next block maps to an open row.
	BankAware bool
	// ThrottleAccuracy, when positive, suppresses prefetch issue while
	// the accuracy over the trailing ThrottleWindow settled prefetches
	// is below this fraction.
	ThrottleAccuracy float64
	// ThrottleWindow is the number of settled prefetches per accuracy
	// sample; it defaults to 256 when throttling is enabled.
	ThrottleWindow int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RegionBytes <= 0 || bits.OnesCount(uint(c.RegionBytes)) != 1 {
		return fmt.Errorf("prefetch: region size %d not a power of two", c.RegionBytes)
	}
	if c.BlockBytes <= 0 || bits.OnesCount(uint(c.BlockBytes)) != 1 {
		return fmt.Errorf("prefetch: block size %d not a power of two", c.BlockBytes)
	}
	if c.BlockBytes > c.RegionBytes {
		return fmt.Errorf("prefetch: block size %d exceeds region size %d", c.BlockBytes, c.RegionBytes)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("prefetch: queue depth %d invalid", c.QueueDepth)
	}
	if c.ThrottleAccuracy < 0 || c.ThrottleAccuracy > 1 {
		return fmt.Errorf("prefetch: throttle accuracy %v outside [0,1]", c.ThrottleAccuracy)
	}
	return nil
}

// BlocksPerRegion reports the bitmap width.
func (c Config) BlocksPerRegion() int { return c.RegionBytes / c.BlockBytes }

// region is one prefetch queue entry: an aligned region with a bit per
// block, set when the block is resident, in flight, or fetched on
// demand.
type region struct {
	base    uint64   // region-aligned address
	bitmap  []uint64 // 1 = done (cached, fetched, or being prefetched)
	pending int      // count of zero bits
	start   int      // block index of the triggering demand miss
	scan    int      // offset (1..n-1) of the next candidate after start
}

func (r *region) done(i int) bool { return r.bitmap[i>>6]&(1<<(uint(i)&63)) != 0 }
func (r *region) markDone(i int) bool {
	if r.done(i) {
		return false
	}
	r.bitmap[i>>6] |= 1 << (uint(i) & 63)
	r.pending--
	return true
}

// peek returns the next un-done block index without consuming it, in
// linear order starting after the demand-miss block and wrapping
// (Section 4 assumption 2). ok is false when the region is exhausted.
func (r *region) peek(n int) (int, bool) {
	if r.pending == 0 {
		return 0, false
	}
	for off := r.scan; off < r.scan+n; off++ {
		i := (r.start + off) % n
		if !r.done(i) {
			r.scan = off
			return i, true
		}
	}
	return 0, false
}

// Stats counts engine activity.
type Stats struct {
	RegionsCreated   uint64
	RegionsReplaced  uint64 // evicted from the queue before completion
	RegionsCompleted uint64 // all blocks processed
	Promotions       uint64 // LIFO re-promotions on demand miss
	Issued           uint64 // prefetch block addresses handed out
	BankAwarePicks   uint64 // issues that skipped ahead to an open row
	ThrottledChecks  uint64 // Next calls suppressed by the throttle
}

// Delta returns the counters accumulated since base was captured.
func (s Stats) Delta(base Stats) Stats {
	return Stats{
		RegionsCreated:   s.RegionsCreated - base.RegionsCreated,
		RegionsReplaced:  s.RegionsReplaced - base.RegionsReplaced,
		RegionsCompleted: s.RegionsCompleted - base.RegionsCompleted,
		Promotions:       s.Promotions - base.Promotions,
		Issued:           s.Issued - base.Issued,
		BankAwarePicks:   s.BankAwarePicks - base.BankAwarePicks,
		ThrottledChecks:  s.ThrottledChecks - base.ThrottledChecks,
	}
}

// Engine is the prefetch controller of Figure 4: the prefetch queue and
// the prefetch prioritizer. The access prioritizer (which lets demand
// misses and writebacks bypass prefetches) lives in the memory
// controller; the engine only decides which block to prefetch next.
type Engine struct {
	cfg   Config
	queue []*region // index 0 = highest issue priority; bases unique
	// free holds entries that left the queue, reused by later regions
	// so a warmed engine allocates nothing.
	free []*region

	// Accuracy throttle state.
	windowUsed, windowSettled int
	throttled                 bool

	stats Stats

	// Observability hooks (see Observe); nil-safe when observability
	// is off.
	tr    *obs.Tracer
	depth *obs.Histogram
}

// New builds an engine from cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ThrottleAccuracy > 0 && cfg.ThrottleWindow <= 0 {
		cfg.ThrottleWindow = 256
	}
	return &Engine{cfg: cfg}, nil
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// QueueLen reports the number of live region entries.
func (e *Engine) QueueLen() int { return len(e.queue) }

func (e *Engine) regionBase(addr uint64) uint64 {
	return addr &^ (uint64(e.cfg.RegionBytes) - 1)
}

func (e *Engine) blockIndex(addr uint64) int {
	return int(addr%uint64(e.cfg.RegionBytes)) / e.cfg.BlockBytes
}

// OnDemandMiss informs the engine of a demand L2 miss. resident, when
// non-nil, reports whether a given block-aligned address is already
// cached; it is consulted once per block when a new region entry is
// created. A nil resident skips that walk and leaves every other block
// pending: the core passes nil, because it re-checks residency when a
// prefetch issues (see core's makePrefetchRequest).
//
// If the miss falls within a queued region, the miss block is marked
// done and, under LIFO, the region is re-promoted to the head.
// Otherwise a new region entry is created, overwriting the oldest
// (FIFO) or tail (LIFO) entry when the queue is full.
func (e *Engine) OnDemandMiss(addr uint64, resident func(block uint64) bool) {
	e.depth.Observe(float64(len(e.queue)))
	base := e.regionBase(addr)
	if qi := e.find(base); qi >= 0 {
		r := e.queue[qi]
		r.markDone(e.blockIndex(addr))
		if r.pending == 0 {
			e.retire(qi, true)
			return
		}
		if e.cfg.Policy == LIFO {
			copy(e.queue[1:qi+1], e.queue[:qi])
			e.queue[0] = r
			e.tr.Instant(obs.EvPrefetchPromote, 0, r.base, 0)
			e.stats.Promotions++
		}
		return
	}

	r := e.newRegion(base, e.blockIndex(addr))
	r.markDone(r.start)
	if resident != nil {
		for i := 0; i < e.cfg.BlocksPerRegion(); i++ {
			if i != r.start && resident(base+uint64(i*e.cfg.BlockBytes)) {
				r.markDone(i)
			}
		}
	}
	e.tr.Instant(obs.EvRegionCreate, 0, base, 0)
	e.stats.RegionsCreated++
	if r.pending == 0 {
		// Everything else already cached; nothing to queue.
		e.stats.RegionsCompleted++
		e.free = append(e.free, r)
		return
	}

	if len(e.queue) >= e.cfg.QueueDepth {
		var victim *region
		if e.cfg.Policy == FIFO {
			// The oldest entry has the highest issue priority and is
			// also the one overwritten (Section 4.2).
			victim = e.queue[0]
			copy(e.queue, e.queue[1:])
		} else {
			victim = e.queue[len(e.queue)-1]
		}
		e.queue = e.queue[:len(e.queue)-1]
		e.free = append(e.free, victim)
		e.tr.Instant(obs.EvRegionReplace, 0, victim.base, 0)
		e.stats.RegionsReplaced++
	}

	if e.cfg.Policy == FIFO {
		// FIFO issues oldest-first: append behind existing entries.
		e.queue = append(e.queue, r)
	} else {
		// LIFO issues newest-first: push at the head.
		e.queue = append(e.queue, nil)
		copy(e.queue[1:], e.queue)
		e.queue[0] = r
	}
}

// find returns the queue position of the region at base, or -1. The
// queue holds at most QueueDepth entries, so a scan beats a map.
func (e *Engine) find(base uint64) int {
	for i, r := range e.queue {
		if r.base == base {
			return i
		}
	}
	return -1
}

// newRegion returns a fresh entry for the region at base triggered by
// a miss to block start, reusing a freed entry when one is available.
func (e *Engine) newRegion(base uint64, start int) *region {
	n := e.cfg.BlocksPerRegion()
	var r *region
	if k := len(e.free); k > 0 {
		r = e.free[k-1]
		e.free = e.free[:k-1]
		clear(r.bitmap)
	} else {
		r = &region{bitmap: make([]uint64, (n+63)/64)}
	}
	r.base, r.start, r.scan, r.pending = base, start, 1, n
	return r
}

// retire removes the region at queue position qi.
func (e *Engine) retire(qi int, completed bool) {
	e.free = append(e.free, e.queue[qi])
	e.queue = append(e.queue[:qi], e.queue[qi+1:]...)
	if completed {
		e.stats.RegionsCompleted++
	}
}

// Next selects the next block to prefetch and marks it in flight.
// rowOpen reports whether a block-aligned address maps to a DRAM bank
// whose row buffer currently holds its row; it is only consulted when
// bank-aware scheduling is enabled and may be nil otherwise. ok is
// false when the queue is empty (or the throttle is engaged).
//
// The caller is expected to invoke Next only when the memory channel
// is otherwise idle (the scheduling half of the proposal); the engine
// itself is oblivious to time.
func (e *Engine) Next(rowOpen func(block uint64) bool) (blockAddr uint64, ok bool) {
	if e.throttled {
		e.stats.ThrottledChecks++
		return 0, false
	}
	if len(e.queue) == 0 {
		return 0, false
	}
	n := e.cfg.BlocksPerRegion()

	pi := 0
	if e.cfg.BankAware && rowOpen != nil {
		// Highest priority to regions whose next prefetch would hit an
		// open row; fall back to strict priority order.
		for qi, r := range e.queue {
			i, live := r.peek(n)
			if !live {
				continue
			}
			if rowOpen(r.base + uint64(i*e.cfg.BlockBytes)) {
				pi = qi
				if qi != 0 {
					e.stats.BankAwarePicks++
				}
				break
			}
		}
	}

	pick := e.queue[pi]
	i, live := pick.peek(n)
	if !live {
		// Exhausted region lingering at the head; retire and retry.
		e.retire(pi, true)
		return e.Next(rowOpen)
	}
	pick.markDone(i)
	block := pick.base + uint64(i*e.cfg.BlockBytes)
	if pick.pending == 0 {
		e.retire(pi, true)
	}
	e.stats.Issued++
	return block, true
}

// RecordSettled feeds the accuracy throttle: the caller reports each
// prefetched block whose fate settled (used before eviction or evicted
// unreferenced). With throttling disabled this only keeps counters.
func (e *Engine) RecordSettled(used bool) {
	e.windowSettled++
	if used {
		e.windowUsed++
	}
	if e.cfg.ThrottleAccuracy > 0 && e.windowSettled >= e.cfg.ThrottleWindow {
		acc := float64(e.windowUsed) / float64(e.windowSettled)
		e.throttled = acc < e.cfg.ThrottleAccuracy
		e.windowUsed, e.windowSettled = 0, 0
	}
}

// Throttled reports whether the engine is currently suppressing issue.
func (e *Engine) Throttled() bool { return e.throttled }

// CheckIntegrity validates the queue structure: depth within the
// configured bound, aligned and unique bases, and per-region pending
// counts consistent with the bitmaps. The paranoid invariant checker
// runs it periodically.
func (e *Engine) CheckIntegrity() error {
	if len(e.queue) > e.cfg.QueueDepth {
		return fmt.Errorf("prefetch: queue holds %d regions, bound %d", len(e.queue), e.cfg.QueueDepth)
	}
	n := e.cfg.BlocksPerRegion()
	for qi, r := range e.queue {
		if r.base != e.regionBase(r.base) {
			return fmt.Errorf("prefetch: queue[%d] base %#x not region-aligned", qi, r.base)
		}
		if first := e.find(r.base); first != qi {
			return fmt.Errorf("prefetch: queue[%d] base %#x already queued at queue[%d]", qi, r.base, first)
		}
		zeros := 0
		for i := 0; i < n; i++ {
			if !r.done(i) {
				zeros++
			}
		}
		if zeros != r.pending {
			return fmt.Errorf("prefetch: queue[%d] base %#x pending=%d but bitmap has %d zero bits",
				qi, r.base, r.pending, zeros)
		}
	}
	return nil
}
