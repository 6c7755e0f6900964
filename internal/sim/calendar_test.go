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
	for _, want := range []string{"fired=1", "pending=1", "buckets=", "width=2^"} {
		if !strings.Contains(d, want) {
			t.Errorf("DebugState %q missing %q", d, want)
		}
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
	// A self-rescheduling pooled callback must ride recycled events:
	// after the first couple of fires the freelist feeds every tick, so
	// steady-state scheduling allocates nothing.
	s := NewScheduler()
	count := 0
	var tick Callback
	tick = func(Time, any) {
		count++
		if count < 1000 {
			s.ScheduleCall(Nanosecond, tick, nil)
		}
	}
	s.ScheduleCall(0, tick, nil)
	allocs := testing.AllocsPerRun(1, func() {
		s.Run()
	})
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	// One warmup event may allocate; a steady-state chain must not
	// allocate per tick.
	if allocs > 5 {
		t.Fatalf("pooled chain allocated %v objects for 1000 events", allocs)
	}
}

func TestCalendarResizeGrowShrink(t *testing.T) {
	s := NewScheduler()
	cq := s.q
	n := 4 * calMinBuckets
	for i := 0; i < n; i++ {
		s.ScheduleCall(Time(i)*Nanosecond, func(Time, any) {}, nil)
	}
	if cq.grows == 0 {
		t.Fatalf("no grow after %d inserts into %d buckets", n, calMinBuckets)
	}
	if got := s.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	s.Run()
	if cq.shrinks == 0 {
		t.Fatal("no shrink while draining")
	}
	if s.EventsFired() != uint64(n) {
		t.Fatalf("fired %d, want %d", s.EventsFired(), n)
	}
}

func TestCalendarSparseYears(t *testing.T) {
	// Events separated by enormous gaps force the rotation scan to give
	// up and jump the cursor (the "sparse year" path). Order must hold.
	s := NewScheduler()
	var fired []Time
	record := func(now Time, _ any) { fired = append(fired, now) }
	times := []Time{0, Second, 3 * Second, 100 * Second, 101 * Second}
	for i := len(times) - 1; i >= 0; i-- {
		s.AtCall(times[i], record, nil)
	}
	s.Run()
	if len(fired) != len(times) {
		t.Fatalf("fired %d, want %d", len(fired), len(times))
	}
	for i := range times {
		if fired[i] != times[i] {
			t.Fatalf("fired = %v, want %v", fired, times)
		}
	}
}

func TestCalendarInterleavedFarNear(t *testing.T) {
	// A far-future event enqueued first shares a bucket day-space with
	// near events wrapping the wheel; pops must still interleave in
	// timestamp order as near events keep arriving.
	s := NewScheduler()
	var fired []Time
	record := func(now Time, _ any) { fired = append(fired, now) }
	s.AtCall(10*Second, record, nil)
	var tick Callback
	n := 0
	tick = func(now Time, _ any) {
		record(now, nil)
		n++
		if n < 200 {
			s.ScheduleCall(50*Millisecond, tick, nil)
		}
	}
	s.ScheduleCall(0, tick, nil)
	s.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v then %v", i, fired[i-1], fired[i])
		}
	}
	if len(fired) != 201 {
		t.Fatalf("fired %d, want 201", len(fired))
	}
}

func TestCalendarCursorDragsBackOnInsert(t *testing.T) {
	// Regression for difftest seed 0: RunUntil peeks at a far-future
	// event to end its window, advancing the day cursor well past the
	// clock. An event then scheduled between the clock and the cursor
	// must drag the cursor back, or the queue hands out the far event
	// first.
	s := NewScheduler()
	var fired []Time
	record := func(now Time, _ any) { fired = append(fired, now) }
	s.ScheduleCall(3345, record, nil)
	s.RunUntil(1105)
	s.ScheduleCall(93, record, nil) // t=1198, behind cursor
	s.Run()
	if len(fired) != 2 || fired[0] != 1198 || fired[1] != 3345 {
		t.Fatalf("fired = %v, want [1198 3345]", fired)
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
