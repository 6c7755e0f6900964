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
// The scheduler is backed by a bucketed calendar queue (see
// calendar.go) with amortized O(1) insert and pop. Events are scheduled
// with ScheduleCall or AtCall: a pre-bound Callback plus an opaque
// payload. The queued records come from a per-scheduler freelist and
// are recycled after firing, so steady-state scheduling on the hot
// paths (controller decisions, transfer completions, core steps) is
// allocation-free. The reference container/heap queue the calendar
// queue is checked against lives in the differential tests of
// internal/sim/difftest.
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

// event is one queued callback, ordered by (when, seq).
type event struct {
	when Time
	seq  uint64
	cb   Callback
	arg  any
	next *event // calendar bucket chain / freelist link
}

// Scheduler is a discrete-event simulation engine. The zero value is
// ready to use, with the clock at time zero.
type Scheduler struct {
	now   Time
	seq   uint64
	fired uint64
	q     *calQueue
	free  *event // freelist of recycled events

	// Advance's limits, set by the loop that is running: the end of a
	// RunUntil window while windowed, and the fired count at which
	// RunWhileSampled must regain control (zero: none).
	horizon  Time
	windowed bool
	stop     uint64
}

// NewScheduler returns a Scheduler with its clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{q: newCalQueue()} }

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// EventsFired reports how many events have executed so far. It is
// useful for progress accounting and tests.
func (s *Scheduler) EventsFired() uint64 { return s.fired }

// Pending reports the number of events currently queued.
func (s *Scheduler) Pending() int {
	if s.q == nil {
		return 0
	}
	return s.q.n
}

// DebugState summarizes the scheduler for diagnostic dumps.
func (s *Scheduler) DebugState() string {
	d := fmt.Sprintf("now=%v fired=%d seq=%d pending=%d", s.now, s.fired, s.seq, s.Pending())
	if q := s.q; q != nil {
		d += fmt.Sprintf(" buckets=%d width=2^%dps grows=%d shrinks=%d retunes=%d",
			len(q.buckets), q.shift, q.grows, q.shrinks, q.retunes)
	}
	return d
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
// clamped to the present. The event is drawn from the scheduler's
// freelist and recycled after it fires, so the call does not allocate
// in steady state.
func (s *Scheduler) AtCall(t Time, cb Callback, arg any) {
	if t < s.now {
		t = s.now
	}
	e := s.free
	if e == nil {
		e = &event{}
	} else {
		s.free = e.next
		e.next = nil
	}
	e.when, e.seq, e.cb, e.arg = t, s.seq, cb, arg
	s.seq++
	if s.q == nil {
		s.q = newCalQueue()
	}
	s.q.push(e)
}

// fire advances the clock to e and runs its callback. The event is
// recycled before the callback executes so that rescheduling from
// inside the callback can reuse it immediately.
func (s *Scheduler) fire(e *event) {
	s.now = e.when
	s.fired++
	cb, arg := e.cb, e.arg
	e.cb, e.arg = nil, nil
	e.next = s.free
	s.free = e
	cb(s.now, arg)
}

// Advance moves the clock to t and counts one fired event, as if an
// event scheduled now for t had just fired, when that event would be
// the next to fire: no pending event is due at or before t, t lies
// within the running RunUntil window, and RunWhileSampled's current
// stride is not used up. Otherwise it declines and changes nothing. A
// self-re-arming component calls it from inside its own callback to
// run its next activation inline, and schedules that activation only
// when Advance declines; fire order, times and EventsFired are the
// same either way. The advance consumes one sequence number, as the
// event would have. A t in the past counts as now.
func (s *Scheduler) Advance(t Time) bool {
	if t < s.now {
		t = s.now
	}
	if (s.windowed && t > s.horizon) || (s.stop != 0 && s.fired >= s.stop) {
		return false
	}
	if s.q != nil {
		if e := s.q.peek(); e != nil && e.when <= t {
			return false
		}
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
	if s.q == nil {
		return false
	}
	e := s.q.pop()
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to exactly t. Events scheduled during execution are honored if
// they fall within the window.
//
// It reports the timestamp of the earliest event still pending, which
// it peeked to stop its loop, and ok=false when the queue is empty.
// Epoch drivers (internal/cluster) use it as their lookahead to skip
// event-free epochs wholesale. Advance never runs past t while it
// runs.
func (s *Scheduler) RunUntil(t Time) (next Time, ok bool) {
	horizon, windowed := s.horizon, s.windowed
	s.horizon, s.windowed = t, true
	defer func() { s.horizon, s.windowed = horizon, windowed }()
	for s.q != nil {
		e := s.q.peek()
		if e == nil {
			break
		}
		if e.when > t {
			next, ok = e.when, true
			break
		}
		s.q.pop()
		s.fire(e)
	}
	if t > s.now {
		s.now = t
	}
	return next, ok
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
// cond stops the loop is still sampled. (Previously the check ran
// before the next event instead, so the loop could exit through cond
// with a crossed boundary never observed — a run's last partial
// stride went unsampled.) Advance declines once a stride is used up,
// so inline events never carry the count past a boundary: coarse
// sees EventsFired at exactly every stride multiple.
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
// owning it. A non-positive interval schedules nothing. The ticks ride
// pooled events, so a long-lived monitor costs one closure at
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
