package sim

import (
	"fmt"
	"testing"
)

// benchDepths are the steady-state pending-event counts the scheduler
// benchmarks hold. Counting the queue length at every push, single
// systems keep a median of one to five events pending and at most
// about twenty, hence 4 and 16; a cluster whose members prefetch
// reaches about a thousand at its tail, hence 1024.
var benchDepths = []int{4, 16, 1024}

// benchDelays mixes core-cycle, DRAM-command and transfer-latency
// scales, so a rescheduled event lands at varying depths of the queue.
// At depth 1024 that spread puts a push about 500 entries from the
// tail, against 10–12 on average in the prefetching clusters that reach
// such depths, so that case bounds the cost of a queue deep throughout.
var benchDelays = [8]Time{625, 1250, 1875, 3750, 9375, 20 * Nanosecond, 45 * Nanosecond, 625}

// BenchmarkSchedulerDepth measures steady-state event throughput at
// each of benchDepths: that many self-rescheduling callbacks, b.N
// pops. Each callback carries a per-chain offset in its payload, as
// components pass per-event state.
func BenchmarkSchedulerDepth(b *testing.B) {
	for _, depth := range benchDepths {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			s := NewScheduler()
			n := 0
			var tick Callback
			tick = func(_ Time, arg any) {
				n++
				s.ScheduleCall(benchDelays[n&7]+Time(arg.(int)), tick, arg)
			}
			for c := 0; c < depth; c++ {
				s.ScheduleCall(Time(c%17)*111, tick, c%13)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
