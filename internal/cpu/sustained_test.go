package cpu

import (
	"testing"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

func TestSustainedIPCBoundsThroughput(t *testing.T) {
	run := func(sustained float64) float64 {
		s := sim.NewScheduler()
		mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
		c, err := New(s, mem, trace.NewSlice(computeOps(200)), Config{
			Width: 4, SustainedIPC: sustained, ROBSize: 64, StoreBuffer: 64, Clock: testClock,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.RunWhile(func() bool { return !c.Done() })
		return ipc(c)
	}
	full := run(0) // no bound
	if full < 3.5 {
		t.Fatalf("unbounded IPC = %v, want near 4", full)
	}
	half := run(2.0)
	if half < 1.8 || half > 2.05 {
		t.Fatalf("sustained-2.0 IPC = %v, want ~2", half)
	}
	frac := run(1.5)
	if frac < 1.35 || frac > 1.55 {
		t.Fatalf("sustained-1.5 IPC = %v, want ~1.5 (fractional credits)", frac)
	}
}

func TestSustainedIPCAboveWidthIsNoOp(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
	c, _ := New(s, mem, trace.NewSlice(computeOps(100)), Config{
		Width: 4, SustainedIPC: 9, ROBSize: 64, StoreBuffer: 64, Clock: testClock,
	})
	s.RunWhile(func() bool { return !c.Done() })
	if ipc(c) < 3.5 {
		t.Fatalf("IPC = %v; a bound above width must not throttle", ipc(c))
	}
}

func TestNegativeSustainedIPCRejected(t *testing.T) {
	cfg := Config{Width: 4, SustainedIPC: -1, ROBSize: 64, StoreBuffer: 8, Clock: testClock}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative sustained IPC accepted")
	}
}

func TestSustainedIPCDoesNotBreakMemoryStalls(t *testing.T) {
	// The dispatch throttle must compose with memory stalls, not
	// replace them: a serial miss chain stays miss-latency-bound.
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 500 * sim.Nanosecond}
	var ops []trace.Op
	for i := 0; i < 8; i++ {
		ops = append(ops, trace.Op{Addr: uint64(i) * 4096, Kind: trace.Load, DependsOnPrev: i > 0})
	}
	c, _ := New(s, mem, trace.NewSlice(ops), Config{
		Width: 4, SustainedIPC: 2, ROBSize: 64, StoreBuffer: 64, Clock: testClock,
	})
	s.RunWhile(func() bool { return !c.Done() })
	if c.FinishTime() < 8*500*sim.Nanosecond {
		t.Fatalf("finish at %v, faster than the serial miss chain allows", c.FinishTime())
	}
}
