package difftest

import (
	"container/heap"

	"memsim/internal/sim"
)

// Reference is the specification scheduler: the original binary-heap
// event queue, ordered by (when, seq) with O(log n) push and pop. It
// implements the sim.Scheduler operations the programs use, with the
// same clamping, same-tick FIFO and sampled-run contract, and
// sim.Scheduler must reproduce its behavior exactly.
type Reference struct {
	now   sim.Time
	seq   uint64
	fired uint64
	h     refHeap
}

type refEvent struct {
	when sim.Time
	seq  uint64
	cb   sim.Callback
	arg  any
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = refEvent{}
	*h = old[:len(old)-1]
	return e
}

// Now reports the current simulated time.
func (r *Reference) Now() sim.Time { return r.now }

// EventsFired reports how many events have executed so far.
func (r *Reference) EventsFired() uint64 { return r.fired }

// Pending reports the number of events currently queued.
func (r *Reference) Pending() int { return len(r.h) }

// ScheduleCall queues cb to run with arg after delay, a negative delay
// counting as zero.
func (r *Reference) ScheduleCall(delay sim.Time, cb sim.Callback, arg any) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&r.h, refEvent{when: r.now + delay, seq: r.seq, cb: cb, arg: arg})
	r.seq++
}

// Advance always declines, so a ticker schedules every tick and the
// Reference fires each one from its heap.
func (r *Reference) Advance(sim.Time) bool { return false }

// fire pops the earliest event, advances the clock to it and runs it.
func (r *Reference) fire() {
	e := heap.Pop(&r.h).(refEvent)
	r.now = e.when
	r.fired++
	e.cb(r.now, e.arg)
}

// Step executes the next pending event and reports false when none
// remain.
func (r *Reference) Step() bool {
	if len(r.h) == 0 {
		return false
	}
	r.fire()
	return true
}

// Run executes events until the queue is empty.
func (r *Reference) Run() {
	for r.Step() {
	}
}

// RunWhileSampled fires events while cond holds and events remain,
// checking coarse before the first event and after every stride of
// them; a zero stride counts as one.
func (r *Reference) RunWhileSampled(cond func() bool, stride uint64, coarse func() bool) {
	if stride == 0 {
		stride = 1
	}
	if !coarse() {
		return
	}
	for stop := r.fired + stride; cond() && r.Step(); {
		if r.fired >= stop {
			if !coarse() {
				return
			}
			stop = r.fired + stride
		}
	}
}
