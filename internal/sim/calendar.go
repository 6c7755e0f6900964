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
// cost of a binary heap. Each event is scanned for once: peek caches
// the minimum it finds, so the pop that follows it, and every repeat
// peek of an idle queue, is O(1). The structure is fully
// deterministic: every decision (bucket choice, resize and retune
// triggers, width recomputation) depends only on the sequence of queue
// operations, never on host state, and no decision can change the pop
// sequence, which is the same total (when, seq) order a heap produces.
type calQueue struct {
	buckets []*event
	mask    uint64
	shift   uint
	n       int    // queued events
	curDay  uint64 // rotation cursor: no queued event has day < curDay

	// first caches the earliest queued event once peek has found it,
	// nil when unknown. While it is set, curDay is its day and it heads
	// its bucket.
	first *event

	// walked counts the empty days the scan stepped over since the
	// last width check, pops the events removed in that time, and
	// since the time of the first of them: the retune trigger's window.
	walked, pops uint64
	since        Time

	// Sizing activity, surfaced through Scheduler.DebugState.
	grows, shrinks, retunes uint64
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
	// calRetuneWindow is how many pops pass between width checks, and
	// calRetuneWalk the mean number of empty days per pop beyond which
	// a check re-derives the width (see maybeRetune).
	calRetuneWindow = 64
	calRetuneWalk   = 4
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
	//
	// An event earlier than the cached minimum is the new minimum: it
	// heads its bucket, and the clamp has just moved the cursor to its
	// day.
	d := q.day(e.when)
	if d < q.curDay {
		q.curDay = d
	}
	q.link(e)
	if q.first != nil && before(e, q.first) {
		q.first = e
	}
	if q.n > 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.grows++
		q.resize(2 * len(q.buckets))
	}
}

// peek returns the earliest queued event without removing it, or nil.
// It advances the day cursor to that event's day and caches the event,
// so the following pop and any repeat peek cost no scan.
func (q *calQueue) peek() *event {
	if q.first != nil || q.n == 0 {
		return q.first
	}
	// Walk at most one full rotation of days from the cursor. Every
	// queued event has day >= curDay, so any event within a rotation
	// is found at its bucket's head (the list is sorted and earlier
	// days come first).
	for range q.buckets {
		if e := q.buckets[q.curDay&q.mask]; e != nil && q.day(e.when) == q.curDay {
			q.first = e
			return e
		}
		q.curDay++
		q.walked++
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
	q.first = best
	return best
}

// pop removes and returns the earliest queued event, or nil.
func (q *calQueue) pop() *event {
	e := q.peek()
	if e == nil {
		return nil
	}
	q.first = nil
	b := q.curDay & q.mask
	q.buckets[b] = e.next
	e.next = nil
	q.n--
	if q.n > 0 && q.n < len(q.buckets)/8 && len(q.buckets) > calMinBuckets {
		q.shrinks++
		q.resize(len(q.buckets) / 2)
	}
	q.maybeRetune(e.when)
	return e
}

// maybeRetune re-derives the bucket width when the scan keeps walking
// empty days. Growth and shrinkage size the wheel from the queued
// events' spread, but a small queue never resizes, and a sparse one
// (a few events tens of nanoseconds apart on 1 ns days) would pay one
// bucket probe per empty day on every pop. Every calRetuneWindow pops
// it compares the days walked with the pops: past calRetuneWalk empty
// days per pop, the width becomes the window's mean time between pops,
// rounded up to a power of two, which brings the walk back to about
// one day per pop. popped is the time of the event just removed.
func (q *calQueue) maybeRetune(popped Time) {
	if q.pops == 0 {
		q.since = popped
	}
	q.pops++
	if q.pops < calRetuneWindow {
		return
	}
	if q.walked > calRetuneWalk*q.pops {
		gap := uint64(popped-q.since) / q.pops
		if shift := min(uint(bits.Len64(gap)), calMaxShift); shift != q.shift {
			q.retunes++
			// relink moves the cursor to the earliest queued event, but
			// an empty queue keeps it: restate it in the new width's
			// days so the next scan starts near the clock. (Push drags
			// it back for any earlier insert.)
			q.curDay = uint64(popped) >> shift
			q.relink(len(q.buckets), shift)
		}
	}
	q.walked, q.pops = 0, 0
}

// resize rebuilds the wheel with nb buckets, recomputing the bucket
// width from the observed event density: width ≈ the average gap
// between queued timestamps, rounded to a power of two. Both triggers
// fire only after Ω(n) queue operations, so the O(n) rebuild is
// amortized O(1); and because the new shape is a pure function of the
// queued events, resizing preserves determinism.
func (q *calQueue) resize(nb int) {
	lo, hi := MaxTime, Time(0)
	for _, e := range q.buckets {
		for ; e != nil; e = e.next {
			lo, hi = min(lo, e.when), max(hi, e.when)
		}
	}
	shift := uint(calInitShift)
	if q.n > 1 {
		gap := uint64(hi-lo) / uint64(q.n-1)
		shift = min(uint(bits.Len64(gap)), calMaxShift)
	}
	q.relink(nb, shift)
}

// relink redistributes every queued event over nb buckets of width
// 1<<shift. The events move through one intrusive chain, so only a
// change of bucket count allocates (the new table).
func (q *calQueue) relink(nb int, shift uint) {
	var chain *event
	lo := MaxTime
	for i, e := range q.buckets {
		for e != nil {
			next := e.next
			// Prepending reverses each bucket's sorted run, so the
			// relink below mostly inserts at bucket heads.
			e.next = chain
			chain = e
			lo = min(lo, e.when)
			e = next
		}
		q.buckets[i] = nil
	}
	if nb != len(q.buckets) {
		q.buckets = make([]*event, nb)
		q.mask = uint64(nb) - 1
	}
	q.shift = shift
	q.first = nil
	q.n = 0
	if chain != nil {
		q.curDay = q.day(lo)
	}
	for chain != nil {
		e := chain
		chain = e.next
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
