package prefetch

import "fmt"

// Prefetcher is the interface the memory system drives: any address-
// generation scheme can sit behind the paper's scheduling machinery
// (idle-channel issue, low-priority insertion), which "is independent
// of the scheme used to generate prefetch addresses" (Section 5).
type Prefetcher interface {
	// OnDemandMiss observes a demand L2 miss. resident, when non-nil,
	// reports whether a block-aligned address is already cached;
	// implementations may ignore it. A nil resident means no residency
	// walk: the core passes nil because it re-checks residency when a
	// prefetch issues.
	OnDemandMiss(addr uint64, resident func(block uint64) bool)
	// Next selects the next block-aligned address to prefetch. rowOpen
	// supports bank-aware schemes and may be ignored.
	Next(rowOpen func(block uint64) bool) (blockAddr uint64, ok bool)
	// RecordSettled feeds accuracy feedback (used before eviction or
	// not).
	RecordSettled(used bool)
	// Stats reports engine counters; fields that do not apply to a
	// scheme stay zero.
	Stats() Stats
}

// Engine (the region prefetcher) implements Prefetcher.
var _ Prefetcher = (*Engine)(nil)

// Sequential is the classic next-N-blocks prefetcher (Smith, 1982):
// a demand miss to block B queues B+1..B+Depth. It captures plain
// sequential locality but, unlike region prefetching, never looks
// backward, does not track which neighbours are already present, and
// has no notion of region retirement.
type Sequential struct {
	blockBytes int
	depth      int
	queueCap   int
	queue      []uint64
	stats      Stats
}

// NewSequential returns a sequential prefetcher with the given
// lookahead depth.
func NewSequential(blockBytes, depth, queueCap int) (*Sequential, error) {
	if blockBytes <= 0 || depth <= 0 || queueCap <= 0 {
		return nil, fmt.Errorf("prefetch: invalid sequential config %d/%d/%d", blockBytes, depth, queueCap)
	}
	return &Sequential{blockBytes: blockBytes, depth: depth, queueCap: queueCap}, nil
}

// OnDemandMiss implements Prefetcher.
func (s *Sequential) OnDemandMiss(addr uint64, resident func(uint64) bool) {
	block := addr &^ uint64(s.blockBytes-1)
	for i := 1; i <= s.depth; i++ {
		next := block + uint64(i*s.blockBytes)
		if resident != nil && resident(next) {
			continue
		}
		s.queue = append(s.queue, next)
	}
	if over := len(s.queue) - s.queueCap; over > 0 {
		// Drop the stalest candidates.
		s.queue = append(s.queue[:0], s.queue[over:]...)
	}
}

// Next implements Prefetcher.
func (s *Sequential) Next(func(uint64) bool) (uint64, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	b := s.queue[0]
	// Shift in place, so the queue keeps its capacity for the next
	// append instead of walking off its backing array.
	s.queue = s.queue[:copy(s.queue, s.queue[1:])]
	s.stats.Issued++
	return b, true
}

// RecordSettled implements Prefetcher.
func (s *Sequential) RecordSettled(bool) {}

// Stats implements Prefetcher.
func (s *Sequential) Stats() Stats { return s.stats }

// Stream is a stride-directed stream prefetcher in the style of the
// reference-prediction and stream-buffer literature the paper compares
// against (Baer & Chen; Palacharla & Kessler; Zhang & McKee). It
// detects constant-stride miss sequences without program counters by
// matching each miss against a small table of recent streams; a
// twice-confirmed stride runs a lookahead of Depth blocks.
type Stream struct {
	blockBytes int
	depth      int
	queue      []uint64
	entries    []streamEntry
	clock      uint64 // advances per observed miss; drives LRU ages
	stats      Stats
}

type streamEntry struct {
	last   uint64 // last miss block address
	stride int64  // block-granular byte stride
	conf   int    // 0 = new, 1 = stride seen once, 2+ = confirmed
	ahead  uint64 // next address to push when confirmed
	age    uint64
	live   bool
}

// NewStream returns a stride prefetcher with the given stream-table
// size and lookahead depth.
func NewStream(blockBytes, tableSize, depth int) (*Stream, error) {
	if blockBytes <= 0 || tableSize <= 0 || depth <= 0 {
		return nil, fmt.Errorf("prefetch: invalid stream config %d/%d/%d", blockBytes, tableSize, depth)
	}
	return &Stream{
		blockBytes: blockBytes,
		depth:      depth,
		entries:    make([]streamEntry, tableSize),
	}, nil
}

// OnDemandMiss implements Prefetcher.
func (s *Stream) OnDemandMiss(addr uint64, resident func(uint64) bool) {
	block := addr &^ uint64(s.blockBytes-1)
	s.clock++

	// Try to extend an existing stream: the miss continues entry e if
	// it lands exactly one stride beyond the last miss.
	for i := range s.entries {
		e := &s.entries[i]
		if !e.live {
			continue
		}
		delta := int64(block) - int64(e.last)
		if delta == 0 {
			e.age = s.clock
			return
		}
		switch {
		case e.conf >= 1 && delta == e.stride:
			e.conf++
			e.last = block
			e.age = s.clock
			if e.conf >= 2 {
				s.extend(e, resident)
			}
			return
		case e.conf == 0 && delta != 0 && abs64(delta) <= int64(8*s.blockBytes):
			// A nearby second miss fixes the candidate stride.
			e.stride = delta
			e.conf = 1
			e.last = block
			e.age = s.clock
			return
		}
	}

	// Allocate (LRU-replace) a new candidate stream.
	victim := 0
	for i := range s.entries {
		if !s.entries[i].live {
			victim = i
			break
		}
		if s.entries[i].age < s.entries[victim].age {
			victim = i
		}
	}
	s.entries[victim] = streamEntry{last: block, age: s.clock, live: true}
}

// extend pushes the confirmed stream's lookahead into the queue: the
// next Depth stride steps beyond the current miss, resuming from where
// the previous extension stopped.
func (s *Stream) extend(e *streamEntry, resident func(uint64) bool) {
	// Reset the lookahead cursor if it lags the miss stream.
	lag := (int64(e.ahead) - int64(e.last)) * sign64(e.stride)
	if e.ahead == 0 || lag <= 0 {
		e.ahead = uint64(int64(e.last) + e.stride)
	}
	// Never run further than Depth strides past the last miss, and
	// stop a descending stream at address zero rather than wrapping.
	for n := 0; n < s.depth; n++ {
		dist := (int64(e.ahead) - int64(e.last)) * sign64(e.stride)
		if dist > int64(s.depth)*abs64(e.stride) {
			break
		}
		next := e.ahead
		if e.stride < 0 && int64(next)+e.stride < 0 {
			break
		}
		e.ahead = uint64(int64(e.ahead) + e.stride)
		if resident != nil && resident(next) {
			continue
		}
		s.queue = append(s.queue, next)
	}
	if maxQ := 4 * s.depth * len(s.entries); len(s.queue) > maxQ {
		s.queue = append(s.queue[:0], s.queue[len(s.queue)-maxQ:]...)
	}
}

func sign64(x int64) int64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Next implements Prefetcher.
func (s *Stream) Next(func(uint64) bool) (uint64, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	b := s.queue[0]
	// Shift in place, so the queue keeps its capacity for the next
	// append instead of walking off its backing array.
	s.queue = s.queue[:copy(s.queue, s.queue[1:])]
	s.stats.Issued++
	return b, true
}

// RecordSettled implements Prefetcher.
func (s *Stream) RecordSettled(bool) {}

// Stats implements Prefetcher.
func (s *Stream) Stats() Stats { return s.stats }

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
