// Package sim is a stub of memsim/internal/sim for eventtime fixtures:
// the analyzer matches Scheduler.ScheduleCall/AtCall by package name,
// receiver type name and method name, so this stub exercises the same
// code path as the real kernel.
package sim

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Nanosecond mirrors the real unit constants.
const Nanosecond Time = 1000

// Scheduler is a stub of the discrete-event engine.
type Scheduler struct {
	now Time
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Callback mirrors the pre-bound event handler form.
type Callback func(now Time, arg any)

// ScheduleCall queues the pre-bound cb with arg after delay.
func (s *Scheduler) ScheduleCall(delay Time, cb Callback, arg any) {}

// AtCall queues the pre-bound cb with arg at absolute time t.
func (s *Scheduler) AtCall(t Time, cb Callback, arg any) {}
