package unitflow_test

import (
	"testing"

	"memsim/internal/lint/analysistest"
	"memsim/internal/lint/analyzers/unitflow"
)

// TestFixtures covers laundering through sim.Time conversions (direct
// and via variables), the blessed multiply-by-unit idiom, cross-unit
// arithmetic, assignment into sim.Time slots, literal laundering, raw
// back-conversion to time.Duration, and native sim.Time arithmetic
// staying silent.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", unitflow.Analyzer, "a")
}

// TestSchedulerFixtures covers the scheduler call sites: Now()
// subtraction in AtCall/Advance deadlines, bare non-zero constants at
// any sim.Time parameter, and the clean forms (zero, unit-multiplied
// literals, named constants, Now()+delta, a lookalike receiver).
func TestSchedulerFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", unitflow.Analyzer, "sched")
}
