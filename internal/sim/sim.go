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
// calendar.go) with amortized O(1) insert and pop. The original
// container/heap engine is retained behind the same API (EngineHeap)
// as the reference implementation for the differential harness in
// internal/sim/difftest; both engines realize the identical total
// (when, seq) event order, so they are interchangeable bit-for-bit.
//
// Two scheduling forms coexist:
//
//   - Schedule and At take a plain closure and return a cancelable
//     *Event handle. Each call allocates, and the Event is never
//     reused, so a retained handle stays valid forever.
//   - ScheduleCall and AtCall take a pre-bound Callback plus an opaque
//     payload and return nothing. Their events come from a
//     per-scheduler freelist and are recycled after firing, so
//     steady-state scheduling on the hot paths (controller decisions,
//     transfer completions, core steps) is allocation-free.
package sim

import "fmt"

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

// Callback is a pre-bound event handler: now is the fire time and arg
// the payload given at scheduling. Components bind one Callback per
// behavior at construction (closing over the component, not the event)
// and pass per-event state through arg, so scheduling allocates
// nothing.
type Callback func(now Time, arg any)

// Event is a scheduled callback. The zero Event is invalid; events are
// created with Scheduler.Schedule or Scheduler.At.
type Event struct {
	when Time
	seq  uint64

	// Exactly one of fn (closure form) and cb (pre-bound form) is set.
	fn  func()
	cb  Callback
	arg any

	canceled bool
	// pooled marks freelist-managed events (the pre-bound form). Their
	// pointers never escape the scheduler, which is what makes reuse
	// safe: Cancel on a stale handle cannot reach them.
	pooled bool

	next  *Event // calendar bucket chain / freelist link
	index int    // heap position (reference engine), -1 once popped
}

// When reports the simulated time at which the event fires.
func (e *Event) When() Time { return e.when }

// Cancel prevents a pending event from firing. Canceling an event that
// already fired or was already canceled is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// eventQueue is the pluggable ordering kernel: a priority queue over
// (when, seq). peek and pop return nil when empty; peek must return
// the same event the next pop removes.
type eventQueue interface {
	push(*Event)
	peek() *Event
	pop() *Event
	size() int
}

// Engine selects the event-queue implementation backing a Scheduler.
type Engine uint8

const (
	// EngineCalendar is the default bucketed calendar queue.
	EngineCalendar Engine = iota
	// EngineHeap is the original container/heap queue, kept as the
	// reference implementation for differential testing.
	EngineHeap
)

// String names the engine as accepted by ParseEngine.
func (e Engine) String() string {
	if e == EngineHeap {
		return "heap"
	}
	return "calendar"
}

// ParseEngine resolves an engine name: "" and "calendar" select the
// calendar queue, "heap" the reference heap.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "calendar":
		return EngineCalendar, nil
	case "heap":
		return EngineHeap, nil
	}
	return EngineCalendar, fmt.Errorf("sim: unknown scheduler engine %q (want \"calendar\" or \"heap\")", name)
}

// Scheduler is a discrete-event simulation engine. The zero value is
// ready to use, with the clock at time zero and the calendar-queue
// engine.
type Scheduler struct {
	now    Time
	seq    uint64
	fired  uint64
	engine Engine
	q      eventQueue
	free   *Event // freelist of recycled pooled events
}

// NewScheduler returns a Scheduler with its clock at zero, backed by
// the calendar queue.
func NewScheduler() *Scheduler { return NewSchedulerEngine(EngineCalendar) }

// NewSchedulerEngine returns a Scheduler backed by the given engine.
func NewSchedulerEngine(e Engine) *Scheduler {
	s := &Scheduler{engine: e}
	s.q = s.newQueue()
	return s
}

func (s *Scheduler) newQueue() eventQueue {
	if s.engine == EngineHeap {
		return newRefQueue()
	}
	return newCalQueue()
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// EventsFired reports how many events have executed so far. It is
// useful for progress accounting and tests.
func (s *Scheduler) EventsFired() uint64 { return s.fired }

// Pending reports the number of events currently queued (including
// canceled events that have not yet been discarded).
func (s *Scheduler) Pending() int {
	if s.q == nil {
		return 0
	}
	return s.q.size()
}

// EngineKind reports which queue implementation backs the scheduler.
func (s *Scheduler) EngineKind() Engine { return s.engine }

// DebugState summarizes the scheduler for diagnostic dumps.
func (s *Scheduler) DebugState() string {
	d := fmt.Sprintf("engine=%v now=%v fired=%d seq=%d pending=%d",
		s.engine, s.now, s.fired, s.seq, s.Pending())
	if cq, ok := s.q.(*calQueue); ok {
		d += fmt.Sprintf(" buckets=%d width=2^%dps grows=%d shrinks=%d",
			len(cq.buckets), cq.shift, cq.grows, cq.shrinks)
	}
	return d
}

// alloc takes an event from the freelist, or makes one.
func (s *Scheduler) alloc() *Event {
	e := s.free
	if e == nil {
		return &Event{pooled: true}
	}
	s.free = e.next
	e.next = nil
	return e
}

// release returns a pooled event to the freelist after it fired or was
// discarded. Closure-form events are left to the garbage collector:
// their pointers escaped through the Schedule/At return value, so a
// caller may still inspect or Cancel them.
func (s *Scheduler) release(e *Event) {
	if !e.pooled {
		return
	}
	e.cb = nil
	e.arg = nil
	e.canceled = false
	e.next = s.free
	s.free = e
}

// enqueue stamps and queues an event at absolute time t, clamping past
// times to the present.
func (s *Scheduler) enqueue(e *Event, t Time) {
	if t < s.now {
		t = s.now
	}
	e.when = t
	e.seq = s.seq
	s.seq++
	if s.q == nil {
		s.q = s.newQueue()
	}
	s.q.push(e)
}

// Schedule queues fn to run after delay. A negative delay is treated as
// zero. Events scheduled for the same instant fire in scheduling order.
func (s *Scheduler) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At queues fn to run at absolute time t. Times in the past are clamped
// to the present.
func (s *Scheduler) At(t Time, fn func()) *Event {
	e := &Event{fn: fn, index: -1}
	s.enqueue(e, t)
	return e
}

// ScheduleCall queues the pre-bound cb to run with arg after delay. A
// negative delay is treated as zero. The event is drawn from the
// scheduler's freelist and recycled after it fires, so the call does
// not allocate in steady state; in exchange there is no handle and the
// event cannot be canceled.
func (s *Scheduler) ScheduleCall(delay Time, cb Callback, arg any) {
	if delay < 0 {
		delay = 0
	}
	s.AtCall(s.now+delay, cb, arg)
}

// AtCall queues the pre-bound cb to run with arg at absolute time t,
// clamped to the present. Like ScheduleCall it is allocation-free and
// returns no handle.
func (s *Scheduler) AtCall(t Time, cb Callback, arg any) {
	e := s.alloc()
	e.cb = cb
	e.arg = arg
	s.enqueue(e, t)
}

// fire advances the clock to e and runs its callback. The event is
// recycled before the callback executes so that rescheduling from
// inside the callback can reuse it immediately.
func (s *Scheduler) fire(e *Event) {
	s.now = e.when
	s.fired++
	if e.fn != nil {
		fn := e.fn
		s.release(e)
		fn()
		return
	}
	cb, arg := e.cb, e.arg
	s.release(e)
	cb(s.now, arg)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (s *Scheduler) Step() bool {
	if s.q == nil {
		return false
	}
	for {
		e := s.q.pop()
		if e == nil {
			return false
		}
		if e.canceled {
			s.release(e)
			continue
		}
		s.fire(e)
		return true
	}
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
// Canceled events at the head are discarded on the way, so the
// reported time is a live event's. Epoch drivers (internal/cluster)
// use it as their lookahead to skip event-free epochs wholesale.
func (s *Scheduler) RunUntil(t Time) (next Time, ok bool) {
	for s.q != nil {
		e := s.q.peek()
		if e == nil {
			break
		}
		if e.canceled {
			s.q.pop()
			s.release(e)
			continue
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
// cond is evaluated before each event.
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
// stride went unsampled.)
func (s *Scheduler) RunWhileSampled(cond func() bool, stride uint64, coarse func() bool) {
	if stride == 0 {
		stride = 1
	}
	if !coarse() {
		return
	}
	next := s.fired + stride
	for cond() {
		if !s.Step() {
			return
		}
		if s.fired >= next {
			if !coarse() {
				return
			}
			next = s.fired + stride
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
