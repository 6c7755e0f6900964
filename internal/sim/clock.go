package sim

import "fmt"

// Clock converts between a component's cycle domain and simulated time.
// A Clock is a value type; copying it is cheap and safe.
type Clock struct {
	period Time // picoseconds per cycle
}

// NewClock returns a Clock with the given frequency in hertz. It panics
// if the frequency does not correspond to a positive whole number of
// picoseconds per cycle after rounding.
func NewClock(freqHz float64) Clock {
	if freqHz <= 0 {
		panic(fmt.Sprintf("sim: invalid clock frequency %v", freqHz))
	}
	p := Time(1e12/freqHz + 0.5)
	if p <= 0 {
		panic(fmt.Sprintf("sim: clock frequency %v too high", freqHz))
	}
	return Clock{period: p}
}

// Period reports the duration of one cycle.
func (c Clock) Period() Time { return c.period }

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.period }

// ToCyclesCeil converts a duration to cycles, rounding up.
func (c Clock) ToCyclesCeil(t Time) int64 {
	return int64((t + c.period - 1) / c.period)
}

// NextEdge returns the earliest cycle boundary at or after t.
func (c Clock) NextEdge(t Time) Time {
	return ((t + c.period - 1) / c.period) * c.period
}
