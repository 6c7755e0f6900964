package sim

import (
	"fmt"
	"testing"
)

// benchChains is the steady-state pending-event population for the
// scheduler microbenchmarks: roughly what a 4-channel tuned-prefetch
// run keeps in flight (core steps, controller decisions, transfer
// completions, monitors).
const benchChains = 256

// benchDelays mixes core-cycle, DRAM-command and transfer-latency
// scales so events spread over many calendar buckets instead of
// hammering one.
var benchDelays = [8]Time{625, 1250, 1875, 3750, 9375, 20 * Nanosecond, 45 * Nanosecond, 625}

// BenchmarkSchedulerCalendar measures steady-state event throughput:
// benchChains self-rescheduling callbacks, b.N pops.
func BenchmarkSchedulerCalendar(b *testing.B) {
	s := NewScheduler()
	n := 0
	var tick Callback
	tick = func(_ Time, arg any) {
		n++
		s.ScheduleCall(benchDelays[n&7]+Time(arg.(int)), tick, arg)
	}
	for c := 0; c < benchChains; c++ {
		s.ScheduleCall(Time(c%17)*111, tick, c%13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSchedulerPending sweeps the pending-set size to show that
// the calendar queue's per-event cost stays flat as the queue grows.
func BenchmarkSchedulerPending(b *testing.B) {
	for _, pending := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("calendar/%d", pending), func(b *testing.B) {
			s := NewScheduler()
			n := 0
			var tick Callback
			tick = func(Time, any) {
				n++
				s.ScheduleCall(benchDelays[n&7], tick, nil)
			}
			for c := 0; c < pending; c++ {
				s.ScheduleCall(Time(c%29)*77, tick, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
