// Package a exercises unitflow: wall-clock nanoseconds and laundered
// bare literals must not flow into sim.Time picosecond slots, and
// sim.Time must not leak raw into time.Duration.
package a

import (
	"sim"
	"time"
)

type cfg struct {
	Deadline sim.Time
}

// laundered converts wall nanoseconds without the unit multiply: the
// taint survives the sim.Time conversion into the scheduler call.
func laundered(s *sim.Scheduler, cb sim.Callback, d time.Duration) {
	s.ScheduleCall(sim.Time(d.Nanoseconds()), cb, nil) // want `wall-clock nanoseconds passed as sim.Time`
	ns := d.Nanoseconds()
	s.AtCall(sim.Time(ns), cb, nil) // want `wall-clock nanoseconds passed as sim.Time`
}

// blessed is the canonical conversion idiom: multiplying by a sim
// unit yields genuine picoseconds.
func blessed(s *sim.Scheduler, cb sim.Callback, d time.Duration) {
	s.ScheduleCall(sim.Time(d.Nanoseconds())*sim.Nanosecond, cb, nil)
	ns := d.Nanoseconds()
	s.AtCall(sim.Time(ns)*sim.Nanosecond, cb, nil)
	s.ScheduleCall(100*sim.Nanosecond, cb, nil)
	s.AtCall(s.Now()+2*sim.Microsecond, cb, nil)
}

// crossArith mixes picoseconds and nanoseconds in one expression.
func crossArith(s *sim.Scheduler, d time.Duration) sim.Time {
	return s.Now() + sim.Time(d.Nanoseconds()) // want `cross-unit arithmetic`
}

// assigned stores wall nanoseconds into a sim.Time field.
func assigned(c *cfg, d time.Duration) {
	c.Deadline = sim.Time(d.Nanoseconds()) // want `wall-clock nanoseconds assigned to a sim.Time slot`
	c.Deadline = sim.Time(d.Nanoseconds()) * sim.Nanosecond
}

// literalLaundered hides a bare integer behind a variable and a
// conversion.
func literalLaundered(s *sim.Scheduler, cb sim.Callback) {
	n := 100
	s.ScheduleCall(sim.Time(n), cb, nil) // want `bare integer laundered into a sim.Time argument`
	s.ScheduleCall(sim.Time(n)*sim.Nanosecond, cb, nil)
}

// backConversion leaks picoseconds into a Duration; dividing by a sim
// unit first is the sanctioned exit.
func backConversion(t sim.Time) time.Duration {
	return time.Duration(t) // want `sim.Time \(picoseconds\) converted directly to time.Duration`
}

func backConversionBlessed(t sim.Time) time.Duration {
	return time.Duration(t / sim.Nanosecond)
}

// simNative arithmetic stays silent.
func simNative(s *sim.Scheduler, cb sim.Callback, t sim.Time) {
	s.AtCall(t+sim.Millisecond, cb, nil)
	s.ScheduleCall(t/2, cb, nil)
	elapsed := s.Now() - t
	s.ScheduleCall(elapsed, cb, nil)
}

// ignored demonstrates the escape hatch.
func ignored(s *sim.Scheduler, cb sim.Callback, d time.Duration) {
	//lint:ignore unitflow this fixture deliberately schedules raw nanoseconds
	s.ScheduleCall(sim.Time(d.Nanoseconds()), cb, nil)
}
