// Package sim is a stub of memsim/internal/sim for unitflow fixtures:
// the analyzer matches the Time type, the unit constants and the
// Scheduler's methods by package and type name, so this stub exercises
// the same code paths as the real kernel.
package sim

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Unit constants mirror the real kernel's.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as wall-clock-comparable nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Callback mirrors the pre-bound event handler form.
type Callback func(now Time, arg any)

// Scheduler is a stub of the discrete-event engine.
type Scheduler struct {
	now Time
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// ScheduleCall queues the pre-bound cb with arg after delay.
func (s *Scheduler) ScheduleCall(delay Time, cb Callback, arg any) {}

// AtCall queues the pre-bound cb with arg at absolute time t.
func (s *Scheduler) AtCall(t Time, cb Callback, arg any) {}

// Advance moves the clock to t when nothing else is due first.
func (s *Scheduler) Advance(t Time) bool { return false }
