package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestZeroSchedulerUsable(t *testing.T) {
	var s Scheduler
	if s.Now() != 0 {
		t.Fatalf("zero scheduler Now = %v, want 0", s.Now())
	}
	ran := false
	s.ScheduleCall(5*Nanosecond, func(Time, any) { ran = true }, nil)
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if s.Now() != 5*Nanosecond {
		t.Fatalf("Now = %v, want 5ns", s.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	record := func(_ Time, arg any) { order = append(order, arg.(int)) }
	s.ScheduleCall(30, record, 3)
	s.ScheduleCall(10, record, 1)
	s.ScheduleCall(20, record, 2)
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	record := func(_ Time, arg any) { order = append(order, arg.(int)) }
	for i := 0; i < 10; i++ {
		s.ScheduleCall(100, record, i)
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp order broken at %d: got %v", i, order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := NewScheduler()
	var at Time = -1
	s.ScheduleCall(100, func(Time, any) {
		s.ScheduleCall(-50, func(now Time, _ any) { at = now }, nil)
	}, nil)
	s.Run()
	if at != 100 {
		t.Fatalf("negative delay fired at %v, want now 100", at)
	}
}

func TestAtClampsPast(t *testing.T) {
	s := NewScheduler()
	var at Time = -1
	s.ScheduleCall(100, func(Time, any) {
		s.AtCall(10, func(now Time, _ any) { at = now }, nil)
	}, nil)
	s.Run()
	if at != 100 {
		t.Fatalf("past AtCall fired at %v, want 100", at)
	}
}

func TestEventChaining(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick Callback
	tick = func(Time, any) {
		count++
		if count < 100 {
			s.ScheduleCall(Nanosecond, tick, nil)
		}
	}
	s.ScheduleCall(0, tick, nil)
	s.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if s.Now() != 99*Nanosecond {
		t.Fatalf("Now = %v, want 99ns", s.Now())
	}
	if s.EventsFired() != 100 {
		t.Fatalf("EventsFired = %d, want 100", s.EventsFired())
	}
}

func TestRunWhile(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick Callback
	tick = func(Time, any) {
		count++
		s.ScheduleCall(1, tick, nil)
	}
	s.ScheduleCall(0, tick, nil)
	s.RunWhile(func() bool { return count < 10 })
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestPending(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.ScheduleCall(Time(i), func(Time, any) {}, nil)
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", s.Pending())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{5 * Nanosecond, "5ns"},
		{77500, "77.5ns"},
		{3 * Microsecond, "3us"},
		{2 * Millisecond, "2ms"},
		{Second, "1s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want Time
	}{
		{0, 0},
		{time.Nanosecond, 1000},
		{10 * time.Nanosecond, 10_000},
		{time.Microsecond, 1_000_000},
	}
	for _, c := range cases {
		if got := FromDuration(c.d); got != c.want {
			t.Errorf("FromDuration(%v) = %dps, want %dps", c.d, int64(got), int64(c.want))
		}
	}
}

// Property: events always fire in non-decreasing timestamp order,
// regardless of scheduling order.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler()
		var fired []Time
		record := func(now Time, _ any) { fired = append(fired, now) }
		for _, d := range delays {
			s.ScheduleCall(Time(d), record, nil)
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockConversions(t *testing.T) {
	c := NewClock(1.6e9) // 1.6 GHz -> 625 ps
	if c.Period() != 625 {
		t.Fatalf("1.6GHz period = %v, want 625ps", c.Period())
	}
	if c.Cycles(16) != 10*Nanosecond {
		t.Fatalf("16 cycles = %v, want 10ns", c.Cycles(16))
	}
	if c.ToCyclesCeil(10*Nanosecond) != 16 {
		t.Fatalf("ToCyclesCeil(10ns) = %d, want 16", c.ToCyclesCeil(10*Nanosecond))
	}
	if c.ToCyclesCeil(1) != 1 || c.ToCyclesCeil(625) != 1 || c.ToCyclesCeil(626) != 2 {
		t.Fatal("ToCyclesCeil rounding wrong")
	}
}

func TestClockNextEdge(t *testing.T) {
	c := NewClock(1.6e9) // 625 ps
	if c.NextEdge(0) != 0 {
		t.Fatalf("NextEdge(0) = %v, want 0", c.NextEdge(0))
	}
	if c.NextEdge(1) != 625 {
		t.Fatalf("NextEdge(1) = %v, want 625", c.NextEdge(1))
	}
	if c.NextEdge(625) != 625 {
		t.Fatalf("NextEdge(625) = %v, want 625", c.NextEdge(625))
	}
	if c.NextEdge(626) != 1250 {
		t.Fatalf("NextEdge(626) = %v, want 1250", c.NextEdge(626))
	}
}

func TestClockPanicsOnBadFreq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewScheduler()
		var fired []Time
		record := func(now Time, _ any) { fired = append(fired, now) }
		var tick Callback
		n := 0
		tick = func(now Time, _ any) {
			record(now, nil)
			n++
			if n < 50 {
				s.ScheduleCall(Time(n%7)*Nanosecond, tick, nil)
				s.ScheduleCall(Time(n%3)*Nanosecond, record, nil)
			}
		}
		s.ScheduleCall(0, tick, nil)
		s.Run()
		return fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic firing at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunWhileSampled(t *testing.T) {
	// coarse is consulted once up front and then after every stride
	// fired events: 100 events at stride 10 means 11 checks.
	s := NewScheduler()
	count, coarse := 0, 0
	var tick Callback
	tick = func(Time, any) {
		count++
		if count < 100 {
			s.ScheduleCall(1, tick, nil)
		}
	}
	s.ScheduleCall(0, tick, nil)
	s.RunWhileSampled(func() bool { return true }, 10, func() bool {
		coarse++
		return true
	})
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if coarse != 11 {
		t.Fatalf("coarse checked %d times, want 11", coarse)
	}
}

func TestRunWhileSampledStops(t *testing.T) {
	// coarse returning false on its third consultation (after 2 full
	// strides) stops the loop at 20 events.
	s := NewScheduler()
	count, coarse := 0, 0
	var tick Callback
	tick = func(Time, any) {
		count++
		s.ScheduleCall(1, tick, nil)
	}
	s.ScheduleCall(0, tick, nil)
	s.RunWhileSampled(func() bool { return true }, 10, func() bool {
		coarse++
		return coarse < 3
	})
	if count != 20 {
		t.Fatalf("count = %d, want 20", count)
	}
}
