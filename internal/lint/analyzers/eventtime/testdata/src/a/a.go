// Package a exercises the eventtime call-site checks.
package a

import "sim"

const penalty = 5 * sim.Nanosecond

type component struct {
	sched   *Schedulerish
	latency sim.Time
}

// Schedulerish must NOT match: right methods, wrong type name.
type Schedulerish struct{}

func (s *Schedulerish) ScheduleCall(delay sim.Time, cb sim.Callback, arg any) {}

func bad(s *sim.Scheduler, cb sim.Callback) {
	s.AtCall(s.Now()-penalty, cb, nil)           // want `Scheduler.AtCall called with a time subtracted from Now\(\)`
	s.AtCall(s.Now()-2*sim.Nanosecond, cb, nil)  // want `Scheduler.AtCall called with a time subtracted from Now\(\)`
	s.ScheduleCall(100, cb, nil)                 // want `Scheduler.ScheduleCall called with bare integer literal 100`
	s.ScheduleCall(-3, cb, nil)                  // want `Scheduler.ScheduleCall called with bare integer literal 3`
	s.AtCall((s.Now()-penalty)+penalty, cb, nil) // want `Scheduler.AtCall called with a time subtracted from Now\(\)`
}

func clean(s *sim.Scheduler, c *component, cb sim.Callback) {
	s.ScheduleCall(0, cb, nil)                  // immediate-schedule idiom is allowed
	s.ScheduleCall(100*sim.Nanosecond, cb, nil) // unit-typed literals are fine
	s.ScheduleCall(penalty, cb, nil)            // named constants are fine
	s.ScheduleCall(c.latency, cb, nil)
	s.AtCall(s.Now()+c.latency, cb, nil)
	c.sched.ScheduleCall(100, cb, nil) // wrong receiver type: not the sim kernel
}
