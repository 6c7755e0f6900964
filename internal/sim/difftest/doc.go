// Package difftest is the differential test harness for the event
// scheduler in internal/sim. Its tests generate randomized but fully
// seeded scheduler workload programs — interleavings of schedule,
// nested schedule, single-step and bounded-run operations — execute
// each against the calendar-queue sim.Scheduler and a heap-ordered
// reference scheduler, and assert the two observable behaviors are
// identical: same fire order, same timestamps, same clock, queue-depth
// and lookahead snapshots after every operation.
//
// Both realize the same strict total order (when, seq), so any
// divergence is a bug in one of them; by convention the heap is the
// specification (it is the original implementation) and the calendar
// queue is the suspect. On divergence the harness shrinks the failing
// program with delta debugging so the report carries a minimal
// reproducer alongside the seed.
//
// The harness is test code only; this file carries the package
// documentation.
package difftest
