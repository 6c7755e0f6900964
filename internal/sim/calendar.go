package sim

import "math/bits"

// calQueue is a bucketed calendar queue (a timing-wheel hybrid): the
// pending-event set is spread over a power-of-two number of buckets,
// each holding an intrusive singly-linked list sorted by (when, seq).
// An event at time t lives in bucket (t >> shift) & mask, where
// 1<<shift picoseconds is the bucket width and day(t) = t >> shift is
// the bucket's rotation number. The dequeue cursor walks days in
// order, so each pop inspects only the one bucket whose day is
// current; events a full rotation or more ahead ("future years") sit
// further down their bucket's sorted list and are skipped by a single
// head comparison.
//
// Under the sizing policy below the expected bucket occupancy is O(1),
// giving amortized O(1) enqueue and dequeue against the O(log n) sift
// cost of a binary heap. The structure is fully deterministic: every
// decision (bucket choice, resize trigger, width recomputation)
// depends only on the queued events, never on host state, so the pop
// sequence is the same total (when, seq) order a heap produces.
type calQueue struct {
	buckets []*event
	mask    uint64
	shift   uint
	n       int    // queued events
	curDay  uint64 // rotation cursor: no queued event has day < curDay

	// Sizing activity, surfaced through Scheduler.DebugState.
	grows, shrinks uint64
}

const (
	// calMinBuckets is the smallest wheel; queues this small hold a
	// handful of events and any structure is fast.
	calMinBuckets = 64
	// calMaxBuckets bounds the wheel so a burst of far-apart events
	// cannot balloon the bucket table.
	calMaxBuckets = 1 << 16
	// calInitShift is the initial bucket width exponent: 1<<10 ps ≈
	// 1 ns, matching the sub-cycle spacing of a busy simulation.
	calInitShift = 10
	// calMaxShift caps the width so day arithmetic stays meaningful.
	calMaxShift = 42
)

func newCalQueue() *calQueue {
	return &calQueue{
		buckets: make([]*event, calMinBuckets),
		mask:    calMinBuckets - 1,
		shift:   calInitShift,
	}
}

// before reports whether a fires strictly before b in the scheduler's
// total order: earlier timestamp, or same timestamp and earlier
// sequence number (FIFO among same-tick events).
func before(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *calQueue) day(t Time) uint64 { return uint64(t) >> q.shift }

// push inserts e, keeping its bucket's list sorted by (when, seq).
// Sequence numbers grow monotonically, so a same-tick burst appends
// behind its predecessors and FIFO order is structural, not repaired.
func (q *calQueue) push(e *event) {
	// Drag the cursor back if e lands behind it, restoring the scan
	// invariant that no queued event has day < curDay. The cursor can
	// legitimately be ahead of the clock: peeking at a far-future event
	// advances it (RunUntil peeks past its window boundary), while the
	// clock stays put — and the next insert is bounded by the clock,
	// not the cursor. Without the clamp such an insert would sit behind
	// the cursor and the scan would hand out later events first. Found
	// by difftest seed 0.
	d := q.day(e.when)
	if d < q.curDay {
		q.curDay = d
	}
	q.link(e)
	if q.n > 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.grows++
		q.resize(2 * len(q.buckets))
	}
}

// peek returns the earliest queued event without removing it, or nil.
// It advances the day cursor to that event's day, so the following pop
// (and any repeat peek) finds it again in one bucket probe.
func (q *calQueue) peek() *event {
	if q.n == 0 {
		return nil
	}
	// Walk at most one full rotation of days from the cursor. Every
	// queued event has day >= curDay, so any event within a rotation
	// is found at its bucket's head (the list is sorted and earlier
	// days come first).
	for range q.buckets {
		if e := q.buckets[q.curDay&q.mask]; e != nil && q.day(e.when) == q.curDay {
			return e
		}
		q.curDay++
	}
	// Sparse year: everything left is at least a rotation away. Jump
	// the cursor straight to the earliest head. Heads are per-bucket
	// minima, so the global minimum is among them; equal timestamps
	// share a bucket, so comparing heads never has to tie-break.
	var best *event
	for _, e := range q.buckets {
		if e != nil && (best == nil || before(e, best)) {
			best = e
		}
	}
	q.curDay = q.day(best.when)
	return best
}

// pop removes and returns the earliest queued event, or nil.
func (q *calQueue) pop() *event {
	e := q.peek()
	if e == nil {
		return nil
	}
	b := q.curDay & q.mask
	q.buckets[b] = e.next
	e.next = nil
	q.n--
	if q.n > 0 && q.n < len(q.buckets)/8 && len(q.buckets) > calMinBuckets {
		q.shrinks++
		q.resize(len(q.buckets) / 2)
	}
	return e
}

// resize rebuilds the wheel with nb buckets, recomputing the bucket
// width from the observed event density: width ≈ the average gap
// between queued timestamps, rounded to a power of two. Both triggers
// fire only after Ω(n) queue operations, so the O(n) rebuild is
// amortized O(1); and because the new shape is a pure function of the
// queued events, resizing preserves determinism.
func (q *calQueue) resize(nb int) {
	evs := make([]*event, 0, q.n)
	lo, hi := MaxTime, Time(0)
	for i, e := range q.buckets {
		for e != nil {
			next := e.next
			e.next = nil
			evs = append(evs, e)
			if e.when < lo {
				lo = e.when
			}
			if e.when > hi {
				hi = e.when
			}
			e = next
		}
		q.buckets[i] = nil
	}

	shift := uint(calInitShift)
	if len(evs) > 1 {
		gap := uint64(hi-lo) / uint64(len(evs)-1)
		shift = uint(bits.Len64(gap))
		if shift > calMaxShift {
			shift = calMaxShift
		}
	}

	q.buckets = make([]*event, nb)
	q.mask = uint64(nb) - 1
	q.shift = shift
	q.n = 0
	if len(evs) > 0 {
		q.curDay = q.day(lo)
	}
	for _, e := range evs {
		// Reinsert without re-triggering the sizing checks: n was
		// chosen against the new bucket count already.
		q.link(e)
	}
}

// link inserts e into its bucket, keeping the list sorted by
// (when, seq), and counts it.
func (q *calQueue) link(e *event) {
	b := q.day(e.when) & q.mask
	p := q.buckets[b]
	if p == nil || before(e, p) {
		e.next = p
		q.buckets[b] = e
	} else {
		for p.next != nil && before(p.next, e) {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
	q.n++
}
