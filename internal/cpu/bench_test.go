package cpu

import (
	"testing"

	"memsim/internal/sim"
	"memsim/internal/workload"
)

// BenchmarkCoreDispatch measures the core by itself: mcf's instruction
// stream over a memory that accepts every access and completes it
// after a fixed 12 cycles, so the time is the core's retire, issue and
// dispatch work plus the stream's generation. It reports host time per
// retired instruction and the allocations per run: one, the stream's
// lazily grown op buffer, since the core allocates nothing after New.
func BenchmarkCoreDispatch(b *testing.B) {
	const instrs = 200_000
	p, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var retired uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gen, err := p.Generator(1, false)
		if err != nil {
			b.Fatal(err)
		}
		s := sim.NewScheduler()
		c, err := New(s, &fixedMemory{sched: s, latency: testClock.Cycles(12)}, gen, cfg(instrs))
		if err != nil {
			b.Fatal(err)
		}
		running := func() bool { return !c.Done() }
		b.StartTimer()
		s.RunWhile(running)
		retired += c.Stats().Retired
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(retired), "ns/instr")
}
