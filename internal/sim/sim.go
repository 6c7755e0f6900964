// Package sim provides the discrete-event simulation kernel used by all
// timing models in memsim: a picosecond-resolution clock, an event queue
// with deterministic same-timestamp ordering, and cycle/time conversion
// helpers.
//
// All simulated components share a single *Scheduler. Components never
// block; they schedule callbacks and react to them. Determinism is
// guaranteed by breaking timestamp ties with a monotonically increasing
// sequence number, so two runs of the same configuration produce
// identical results.
//
// The pending events are one slice of event values, kept sorted
// latest-first so the next event to fire is its tail: a peek reads the
// tail, a pop truncates, and a push shifts the few earlier-firing
// entries toward the tail to make room (see push). Simulated traffic
// keeps few events pending — a median of one to five at each push and
// at most twenty on single systems, a thousand or so only at the tail
// of a cluster whose members prefetch — so the shift is short and no
// bucket wheel or heap pays for itself. Events are scheduled with
// ScheduleCall or AtCall: a pre-bound Callback plus an opaque payload,
// stored by value in the slice, so steady-state scheduling on the hot
// paths (controller decisions, transfer completions, core steps) is
// allocation-free once the slice is deep enough. The reference
// container/heap queue the scheduler is checked against lives in the
// differential tests of internal/sim/difftest.
//
// A component that re-arms itself every cycle (the core) need not
// queue each activation: Advance moves the clock straight to its next
// activation, counting it as a fired event, whenever that activation
// would be the next event to fire anyway. One Step, and one callback,
// may therefore carry many such inline events; fire order, times and
// EventsFired are those of the queued form.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated timestamp or duration in picoseconds.
//
// Picoseconds are fine enough to represent both CPU cycles (625 ps at
// 1.6 GHz) and DRDRAM bus transfers (1250 ps per 16-bit transfer at
// 800 MHz DDR) exactly, and an int64 of picoseconds spans over 100 days
// of simulated time, far beyond any run we perform.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time. It is used as an
// "infinitely far in the future" sentinel.
const MaxTime Time = 1<<63 - 1

// String formats the time with an appropriate SI unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("%dps", int64(t))
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(t)/float64(Second))
	}
}

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// FromDuration converts a wall-clock duration, such as a flag value,
// to simulated time. Durations count nanoseconds and Time counts
// picoseconds, so a bare Time(d) would be a thousand times too short.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) * Nanosecond }

// Callback is a pre-bound event handler: now is the fire time and arg
// the payload given at scheduling. Components bind one Callback per
// behavior at construction (closing over the component, not the event)
// and pass per-event state through arg, so scheduling allocates
// nothing.
type Callback func(now Time, arg any)

// event is one queued callback. Its place in the queue encodes its
// sequence number (see push), so it stores only its time.
type event struct {
	when Time
	cb   Callback
	arg  any
}

// Scheduler is a discrete-event simulation engine. The zero value is
// ready to use, with the clock at time zero.
type Scheduler struct {
	now   Time
	seq   uint64
	fired uint64
	// q holds the pending events sorted latest-first by (when, seq),
	// seq being the order of scheduling: q[len(q)-1] fires next.
	q []event

	// stop is the fired count at which RunWhileSampled must regain
	// control, Advance's one limit (zero: none).
	stop uint64
}

// NewScheduler returns a Scheduler with its clock at zero and room
// for queueDepth pending events.
func NewScheduler() *Scheduler { return &Scheduler{q: make([]event, 0, queueDepth)} }

// queueDepth is the queue capacity NewScheduler allocates up front:
// more than any single system keeps pending (at most about twenty), so
// such a run never grows the queue while it simulates. A cluster whose
// members prefetch grows it by appending.
const queueDepth = 32

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// EventsFired reports how many events have executed so far. It is
// useful for progress accounting and tests.
func (s *Scheduler) EventsFired() uint64 { return s.fired }

// Pending reports the number of events currently queued.
func (s *Scheduler) Pending() int { return len(s.q) }

// DebugState summarizes the scheduler for diagnostic dumps: the
// counters, the next event's time while one is pending, and the queue
// slice's capacity, which grows only when the queue gets deeper than
// it has been.
func (s *Scheduler) DebugState() string {
	d := fmt.Sprintf("now=%v fired=%d seq=%d pending=%d", s.now, s.fired, s.seq, len(s.q))
	if n := len(s.q); n > 0 {
		d += fmt.Sprintf(" next=%v", s.q[n-1].when)
	}
	return d + fmt.Sprintf(" cap=%d", cap(s.q))
}

// ScheduleCall queues the pre-bound cb to run with arg after delay. A
// negative delay is treated as zero. Events scheduled for the same
// instant fire in scheduling order.
func (s *Scheduler) ScheduleCall(delay Time, cb Callback, arg any) {
	if delay < 0 {
		delay = 0
	}
	s.AtCall(s.now+delay, cb, arg)
}

// AtCall queues the pre-bound cb to run with arg at absolute time t,
// clamped to the present. The event is stored by value in the queue
// slice, so the call does not allocate once the slice has grown.
func (s *Scheduler) AtCall(t Time, cb Callback, arg any) {
	if t < s.now {
		t = s.now
	}
	s.push(event{when: t, cb: cb, arg: arg})
	s.seq++
}

// push inserts e into the queue, keeping it sorted latest-first. The
// entries at the tail that fire before e move one slot toward the tail
// and e takes the slot they free. e carries the largest sequence
// number yet, so a queued event with the same timestamp fires first:
// same-tick FIFO is structural. Most events land within a few slots of
// the tail, so the move is short.
func (s *Scheduler) push(e event) {
	q := append(s.q, e)
	i := len(q) - 1
	for ; i > 0 && q[i-1].when <= e.when; i-- {
		q[i] = q[i-1]
	}
	q[i] = e
	s.q = q
}

// pop removes and returns the next event. The queue must not be empty.
// The vacated slot is cleared so the queue keeps no payload alive.
func (s *Scheduler) pop() event {
	n := len(s.q) - 1
	e := s.q[n]
	s.q[n] = event{}
	s.q = s.q[:n]
	return e
}

// fire advances the clock to e and runs its callback.
func (s *Scheduler) fire(e event) {
	s.now = e.when
	s.fired++
	e.cb(s.now, e.arg)
}

// Advance moves the clock to t and counts one fired event, as if an
// event scheduled now for t had just fired, when that event would be
// the next to fire: no pending event is due at or before t, and
// RunWhileSampled's current stride is not used up. Otherwise it
// declines and changes nothing. A self-re-arming component calls it
// from inside its own callback to run its next activation inline, and
// schedules that activation only when Advance declines; fire order,
// times and EventsFired are the same either way. The advance consumes
// one sequence number, as the event would have. A t in the past counts
// as now.
func (s *Scheduler) Advance(t Time) bool {
	if t < s.now {
		t = s.now
	}
	if s.stop != 0 && s.fired >= s.stop {
		return false
	}
	if n := len(s.q); n > 0 && s.q[n-1].when <= t {
		return false
	}
	s.now = t
	s.fired++
	s.seq++
	return true
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when no events remain. One Step may
// carry several fired events: the callback can run further activations
// inline through Advance.
func (s *Scheduler) Step() bool {
	if len(s.q) == 0 {
		return false
	}
	s.fire(s.pop())
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunWhile executes events while cond returns true and events remain.
// cond is evaluated before each Step, not between the events a Step
// carries inline (see Advance): a condition that only events in the
// queue can change, or that the inline-running component checks
// itself, stops the loop exactly where it would stop between events.
func (s *Scheduler) RunWhile(cond func() bool) {
	for cond() && s.Step() {
	}
}

// RunWhileSampled executes events like RunWhile, with a second, coarse
// condition evaluated before the first event and then at every stride
// boundary of fired events. The split lets callers keep a cheap
// condition (a pointer check) on the per-event path while amortizing
// an expensive one — a context poll, a wall-clock read — so
// cancellation costs nothing measurable at event-loop granularity. A
// zero stride checks coarse after every event.
//
// The sampling bound is tight: coarse runs in the same loop iteration
// that crosses a stride boundary, immediately after the event that
// crossed it, so at most stride events fire between consecutive
// coarse evaluations and a boundary reached by the final event before
// cond stops the loop is still sampled. Advance declines once a
// stride is used up, so inline events never carry the count past a
// boundary: coarse sees EventsFired at exactly every stride multiple.
func (s *Scheduler) RunWhileSampled(cond func() bool, stride uint64, coarse func() bool) {
	if stride == 0 {
		stride = 1
	}
	if !coarse() {
		return
	}
	stop := s.stop
	defer func() { s.stop = stop }()
	s.stop = s.fired + stride
	for cond() {
		if !s.Step() {
			return
		}
		if s.fired >= s.stop {
			if !coarse() {
				return
			}
			s.stop = s.fired + stride
		}
	}
}

// Every schedules fn to fire after each interval for as long as it
// returns true. Monitoring hooks (the hardening watchdog and the
// paranoid invariant checker) use it to ride the event loop without
// owning it. A non-positive interval schedules nothing. The ticks are
// queued by value, so a long-lived monitor costs one closure at
// installation and nothing per tick.
func (s *Scheduler) Every(interval Time, fn func() bool) {
	if interval <= 0 {
		return
	}
	var tick Callback
	tick = func(Time, any) {
		if fn() {
			s.ScheduleCall(interval, tick, nil)
		}
	}
	s.ScheduleCall(interval, tick, nil)
}
