package sched

import "sim"

// The scheduler's time discipline at call sites: a deadline subtracted
// from Now() lands in the past and is clamped to the present, and a
// bare non-zero constant where a sim.Time is expected is a raw
// picosecond count.

const penalty = 5 * sim.Nanosecond

type component struct {
	sched   *Schedulerish
	latency sim.Time
}

// Schedulerish must NOT match the scheduler rule: right methods, wrong
// type name.
type Schedulerish struct{}

func (s *Schedulerish) AtCall(t sim.Time, cb sim.Callback, arg any) {}

// setDeadline is an ordinary function with a sim.Time parameter.
func setDeadline(t sim.Time) {}

func bad(s *sim.Scheduler, cb sim.Callback, d sim.Time) {
	s.AtCall(s.Now()-penalty, cb, nil)           // want `Scheduler.AtCall called with a time subtracted from Now\(\)`
	s.AtCall(s.Now()-2*sim.Nanosecond, cb, nil)  // want `Scheduler.AtCall called with a time subtracted from Now\(\)`
	s.ScheduleCall(100, cb, nil)                 // want `bare integer 100 passed as a sim.Time argument`
	s.ScheduleCall(-3, cb, nil)                  // want `bare integer -3 passed as a sim.Time argument`
	s.AtCall((s.Now()-penalty)+penalty, cb, nil) // want `Scheduler.AtCall called with a time subtracted from Now\(\)`
	s.Advance(s.Now() - d)                       // want `Scheduler.Advance called with a time subtracted from Now\(\)`
	setDeadline(250)                             // want `bare integer 250 passed as a sim.Time argument`
}

func clean(s *sim.Scheduler, c *component, cb sim.Callback) {
	s.ScheduleCall(0, cb, nil)                  // immediate-schedule idiom is allowed
	s.ScheduleCall(100*sim.Nanosecond, cb, nil) // unit-typed literals are fine
	s.ScheduleCall(penalty, cb, nil)            // named constants are fine
	s.ScheduleCall(c.latency, cb, nil)
	s.AtCall(s.Now()+c.latency, cb, nil)
	s.Advance(s.Now() + c.latency)
	setDeadline(s.Now() - c.latency)         // only the scheduler's deadlines must not precede Now()
	c.sched.AtCall(s.Now()-penalty, cb, nil) // wrong receiver type: not the sim kernel
}
