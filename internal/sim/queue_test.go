package sim

import (
	"strings"
	"testing"
)

func TestDebugState(t *testing.T) {
	s := NewScheduler()
	s.ScheduleCall(10, func(Time, any) {}, nil)
	s.ScheduleCall(20, func(Time, any) {}, nil)
	s.Step()
	d := s.DebugState()
	for _, want := range []string{"fired=1", "pending=1", "next=20ps", "cap="} {
		if !strings.Contains(d, want) {
			t.Errorf("DebugState %q missing %q", d, want)
		}
	}
	s.Run()
	if d := s.DebugState(); strings.Contains(d, "next=") || !strings.Contains(d, "pending=0") {
		t.Errorf("drained DebugState %q reports a next event", d)
	}
}

func TestScheduleCallOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	record := func(_ Time, arg any) { order = append(order, arg.(int)) }
	s.ScheduleCall(30, record, 3)
	s.ScheduleCall(10, record, 1)
	s.AtCall(20, record, 2)
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestScheduleCallClampsPast(t *testing.T) {
	s := NewScheduler()
	var at Time = -1
	s.ScheduleCall(100, func(Time, any) {
		s.AtCall(10, func(now Time, _ any) { at = now }, nil)
		s.ScheduleCall(-50, func(Time, any) {}, nil)
	}, nil)
	s.Run()
	if at != 100 {
		t.Fatalf("past AtCall fired at %v, want clamped to 100", at)
	}
}

func TestScheduleCallMixesWithAtCall(t *testing.T) {
	// Same-tick FIFO must hold across the relative and absolute forms:
	// the seq stamp is shared, so interleaved AtCall/ScheduleCall at one
	// timestamp fire in call order.
	s := NewScheduler()
	var order []int
	record := func(_ Time, arg any) { order = append(order, arg.(int)) }
	s.AtCall(100, record, 0)
	s.ScheduleCall(100, record, 1)
	s.AtCall(100, record, 2)
	s.ScheduleCall(100, record, 3)
	s.Run()
	if len(order) != 4 {
		t.Fatalf("fired %v, want 4 events", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-form FIFO broken: %v", order)
		}
	}
}

func TestPooledEventReuse(t *testing.T) {
	// Events are stored by value in the queue slice, so once the slice
	// has grown to the deepest queue a workload reaches, scheduling and
	// firing allocate nothing: a warm 16-deep self-rescheduling set
	// runs 1000 events with zero allocations.
	s := NewScheduler()
	count := 0
	var tick Callback
	tick = func(_ Time, arg any) {
		count++
		s.ScheduleCall(Time(1+arg.(int)%5)*Nanosecond, tick, arg)
	}
	for c := 0; c < 16; c++ {
		s.ScheduleCall(Time(c), tick, c)
	}
	for i := 0; i < 100; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			s.Step()
		}
	})
	if count != 100+11*1000 {
		t.Fatalf("count = %d, want %d", count, 100+11*1000)
	}
	if allocs != 0 {
		t.Fatalf("warm queue allocated %v objects per 1000 events, want 0", allocs)
	}
	if s.Pending() != 16 {
		t.Fatalf("Pending = %d, want 16", s.Pending())
	}
}

func TestRunWhileSampledOvershootBound(t *testing.T) {
	// Contract: coarse is evaluated once before the first event and
	// then in the same loop iteration as any event that reaches or
	// crosses a stride boundary — at most stride events fire between
	// consecutive coarse evaluations, and the boundary crossed by the
	// final event before cond stops the loop is still observed.
	s := NewScheduler()
	var tick Callback
	count := 0
	tick = func(Time, any) {
		count++
		s.ScheduleCall(1, tick, nil)
	}
	s.ScheduleCall(0, tick, nil)

	const stride = 10
	var gaps []uint64
	last := s.EventsFired()
	s.RunWhileSampled(
		func() bool { return count < 95 },
		stride,
		func() bool {
			gaps = append(gaps, s.EventsFired()-last)
			last = s.EventsFired()
			return true
		},
	)
	for i, g := range gaps {
		if g > stride {
			t.Fatalf("coarse gap %d at check %d exceeds stride %d", g, i, stride)
		}
	}
	// 95 events at stride 10: checks at 0, 10, 20, ..., 90 = 10 calls.
	// The final boundary (90) is observed even though cond, not coarse,
	// ends the loop — the old scheduler lost that last sample.
	if len(gaps) != 10 {
		t.Fatalf("coarse ran %d times for 95 events at stride %d, want 10", len(gaps), stride)
	}
}

func TestEveryPooled(t *testing.T) {
	s := NewScheduler()
	n := 0
	s.Every(Nanosecond, func() bool {
		n++
		return n < 50
	})
	s.Run()
	if n != 50 {
		t.Fatalf("Every ticked %d times, want 50", n)
	}
	if s.Now() != 50*Nanosecond {
		t.Fatalf("Now = %v, want 50ns", s.Now())
	}
	s.Every(0, func() bool { t.Error("non-positive interval ticked"); return false })
	s.Run()
}
