package cache

import (
	"fmt"
	"strings"

	"memsim/internal/sim"
)

// Waiter is one request merged into an outstanding fill: plain data
// whose Fire method runs it with the fill time.
type Waiter interface {
	Fire(at sim.Time)
}

// MSHR is one miss-status holding register: an outstanding fill for a
// block, with the requests merged into it.
type MSHR[W Waiter] struct {
	Block uint64
	// PrefetchOnly is true while the fill was initiated by the
	// prefetcher and no demand request has merged into it. A demand
	// miss that finds an in-flight prefetch merges and clears this.
	PrefetchOnly bool
	// Waiters are fired with the fill time.
	Waiters []W
}

// MSHRTable tracks outstanding misses with bounded capacity, merging
// requests to the same block into one entry. Real tables hold a
// handful of entries (8 in the paper's data caches), so a linear scan
// beats hashing on the hot lookup path.
//
// Entries are value slots sized once at construction: an entry's slot
// never moves while it is outstanding, and a completed entry's slot and
// waiter buffer are reused by a later allocation, so a warmed table
// allocates nothing.
type MSHRTable[W Waiter] struct {
	slots []MSHR[W]
	live  []int // slot indices of outstanding entries, in allocation order
	free  []int // unused slot indices
	// spare is a detached waiter buffer: firing swaps it into the entry
	// so waiters merged while the old ones run land in other memory.
	spare []W
	// HighWater tracks the maximum simultaneous occupancy observed.
	HighWater int
}

// NewMSHRTable returns a table with the given capacity.
func NewMSHRTable[W Waiter](capacity int) *MSHRTable[W] {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: MSHR capacity %d invalid", capacity))
	}
	t := &MSHRTable[W]{
		slots: make([]MSHR[W], capacity),
		live:  make([]int, 0, capacity),
		free:  make([]int, capacity),
	}
	for i := range t.free {
		t.free[i] = capacity - 1 - i
	}
	return t
}

// Capacity reports the table size.
func (t *MSHRTable[W]) Capacity() int { return len(t.slots) }

// Len reports current occupancy.
func (t *MSHRTable[W]) Len() int { return len(t.live) }

// Full reports whether no further entries can be allocated.
func (t *MSHRTable[W]) Full() bool { return len(t.free) == 0 }

// find returns the position in live of the block's entry, or -1.
func (t *MSHRTable[W]) find(block uint64) int {
	for i, s := range t.live {
		if t.slots[s].Block == block {
			return i
		}
	}
	return -1
}

// Lookup returns the in-flight entry for the block, if any.
func (t *MSHRTable[W]) Lookup(block uint64) (*MSHR[W], bool) {
	if i := t.find(block); i >= 0 {
		return &t.slots[t.live[i]], true
	}
	return nil, false
}

// Allocate creates an entry for the block. It panics if the table is
// full or the block already has an entry; callers must check Full and
// Lookup first.
func (t *MSHRTable[W]) Allocate(block uint64, prefetchOnly bool) *MSHR[W] {
	if t.Full() {
		panic("cache: MSHR allocate on full table")
	}
	if t.find(block) >= 0 {
		panic(fmt.Sprintf("cache: duplicate MSHR for block %#x", block))
	}
	s := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.live = append(t.live, s)
	if len(t.live) > t.HighWater {
		t.HighWater = len(t.live)
	}
	m := &t.slots[s]
	m.Block, m.PrefetchOnly = block, prefetchOnly
	return m
}

// Blocks returns the outstanding block addresses in allocation order.
// The paranoid invariant checker compares them against the memory
// controller's in-flight transfers.
func (t *MSHRTable[W]) Blocks() []uint64 {
	out := make([]uint64, len(t.live))
	for i, s := range t.live {
		out[i] = t.slots[s].Block
	}
	return out
}

// DebugString summarizes the table for diagnostic dumps.
func (t *MSHRTable[W]) DebugString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d entries (high water %d)", len(t.live), len(t.slots), t.HighWater)
	for _, s := range t.live {
		m := &t.slots[s]
		fmt.Fprintf(&b, "\n  block=%#x waiters=%d prefetchOnly=%v", m.Block, len(m.Waiters), m.PrefetchOnly)
	}
	return b.String()
}

// Fire detaches m's waiters and fires them with the fill time. The
// entry stays outstanding; requests merging into it while the waiters
// run are kept for a later Fire.
func (t *MSHRTable[W]) Fire(m *MSHR[W], at sim.Time) {
	ws := m.Waiters
	m.Waiters, t.spare = t.spare[:0], nil
	for _, w := range ws {
		w.Fire(at)
	}
	t.spare = ws[:0]
}

// Complete removes the block's entry and fires its waiters with the
// fill time. Completing an unknown block panics: it indicates a fill
// without a matching miss.
func (t *MSHRTable[W]) Complete(block uint64, at sim.Time) {
	i := t.find(block)
	if i < 0 {
		panic(fmt.Sprintf("cache: MSHR complete for unknown block %#x", block))
	}
	s := t.live[i]
	t.live = append(t.live[:i], t.live[i+1:]...)
	t.free = append(t.free, s)
	// A waiter may allocate the freed slot; Fire has already detached
	// the waiters it runs by then.
	t.Fire(&t.slots[s], at)
}
