package eventtime_test

import (
	"testing"

	"memsim/internal/lint/analysistest"
	"memsim/internal/lint/analyzers/eventtime"
)

// TestFixtures covers Scheduler.AtCall/ScheduleCall call sites: subtraction
// from Now() (clamped to the past), bare integer literals where a
// sim.Time is expected, and the clean forms (unit-multiplied literals,
// named constants, Now()+delta, zero).
func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", eventtime.Analyzer, "a")
}
