package sim

import (
	"slices"
	"testing"
)

// ticker re-arms itself every period for n ticks, running each next
// tick inline when Advance allows and scheduling it otherwise, the way
// the core steps. It logs every tick's time and fired count.
type ticker struct {
	s      *Scheduler
	period Time
	left   int
	at     []Time
	fired  []uint64
	inline int
	cb     Callback
}

func startTicker(s *Scheduler, delay, period Time, n int) *ticker {
	k := &ticker{s: s, period: period, left: n}
	k.cb = func(Time, any) { k.run() }
	s.ScheduleCall(delay, k.cb, nil)
	return k
}

func (k *ticker) run() {
	for {
		k.at = append(k.at, k.s.Now())
		k.fired = append(k.fired, k.s.EventsFired())
		if k.left--; k.left == 0 {
			return
		}
		if !k.s.Advance(k.s.Now() + k.period) {
			k.s.ScheduleCall(k.period, k.cb, nil)
			return
		}
		k.inline++
	}
}

func TestAdvanceMovesClockAndCounts(t *testing.T) {
	var s Scheduler
	if !s.Advance(40) {
		t.Fatal("Advance on an empty zero scheduler declined")
	}
	if s.Now() != 40 || s.EventsFired() != 1 || s.seq != 1 {
		t.Fatalf("after Advance(40): now=%v fired=%d seq=%d, want 40 1 1", s.Now(), s.EventsFired(), s.seq)
	}
	if !s.Advance(10) || s.Now() != 40 {
		t.Fatalf("Advance into the past: now=%v, want it clamped to 40", s.Now())
	}
}

func TestAdvanceDeclinesSameTick(t *testing.T) {
	s := NewScheduler()
	s.ScheduleCall(10, func(Time, any) {}, nil)
	// The queued event has the lower seq, so it fires first (FIFO).
	if s.Advance(10) {
		t.Fatal("Advance(10) ran ahead of an event due at 10")
	}
	if s.Now() != 0 || s.EventsFired() != 0 || s.seq != 1 {
		t.Fatalf("declined Advance changed state: now=%v fired=%d seq=%d", s.Now(), s.EventsFired(), s.seq)
	}
	if !s.Advance(9) {
		t.Fatal("Advance(9) declined with the next event at 10")
	}

	// A ticker yields to an event due with its next tick: the event
	// fires third, then the tick at 20, and the ticker resumes inline.
	s = NewScheduler()
	s.ScheduleCall(20, func(Time, any) {}, nil)
	k := startTicker(s, 0, 10, 4)
	s.Run()
	if want := []Time{0, 10, 20, 30}; !slices.Equal(k.at, want) {
		t.Fatalf("ticks at %v, want %v", k.at, want)
	}
	if want := []uint64{1, 2, 4, 5}; !slices.Equal(k.fired, want) {
		t.Fatalf("fired counts %v, want %v", k.fired, want)
	}
	if k.inline != 2 {
		t.Fatalf("%d ticks ran inline, want 2", k.inline)
	}
}

func TestAdvanceStopsAtRunUntilWindow(t *testing.T) {
	s := NewScheduler()
	k := startTicker(s, 0, 10, 100)
	next, ok := s.RunUntil(35)
	if want := []Time{0, 10, 20, 30}; !slices.Equal(k.at, want) {
		t.Fatalf("ticks at %v, want %v", k.at, want)
	}
	if k.inline != 3 {
		t.Fatalf("%d ticks ran inline, want 3", k.inline)
	}
	if s.Now() != 35 || !ok || next != 40 || s.Pending() != 1 || s.EventsFired() != 4 {
		t.Fatalf("after RunUntil(35): now=%v next=%v ok=%v pending=%d fired=%d, want 35 40 true 1 4",
			s.Now(), next, ok, s.Pending(), s.EventsFired())
	}
	// Outside the window the ticker runs inline to its end.
	s.Run()
	if len(k.at) != 100 || k.at[99] != 990 || s.EventsFired() != 100 {
		t.Fatalf("drained: %d ticks, last at %v, fired %d", len(k.at), k.at[len(k.at)-1], s.EventsFired())
	}
	if k.inline != 98 {
		t.Fatalf("%d ticks ran inline, want 98", k.inline)
	}
}

func TestAdvanceStopsAtSampledStride(t *testing.T) {
	const stride = 64
	s := NewScheduler()
	k := startTicker(s, 0, 10, 1000)
	var seen []uint64
	s.RunWhileSampled(func() bool { return true }, stride, func() bool {
		seen = append(seen, s.EventsFired())
		return true
	})
	if len(seen) != 1000/stride+1 {
		t.Fatalf("coarse ran %d times, want %d", len(seen), 1000/stride+1)
	}
	for i, f := range seen {
		if f != uint64(i*stride) {
			t.Fatalf("coarse call %d saw %d events fired, want %d", i, f, i*stride)
		}
	}
	// Each boundary after the first costs one queued tick.
	if len(k.at) != 1000 || k.inline != 999-(len(seen)-1) {
		t.Fatalf("%d ticks, %d inline, want 1000 and %d", len(k.at), k.inline, 999-(len(seen)-1))
	}

	// A coarse stop ends the loop on the boundary and lifts the limit.
	s = NewScheduler()
	k = startTicker(s, 0, 10, 1000)
	s.RunWhileSampled(func() bool { return true }, stride, func() bool { return s.EventsFired() < 2*stride })
	if s.EventsFired() != 2*stride {
		t.Fatalf("stopped at %d events, want %d", s.EventsFired(), 2*stride)
	}
	s.Run()
	if len(k.at) != 1000 || k.inline != 999-2 {
		t.Fatalf("after the sampled loop: %d ticks, %d inline, want 1000 and 997", len(k.at), k.inline)
	}
}
