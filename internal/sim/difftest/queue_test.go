package difftest

import (
	"testing"

	"memsim/internal/sim"
)

// The tests below replay fixed program shapes that stress the ordering
// of sim.Scheduler's queue, each checked against the Reference and
// pinned to its expected fire times.

// mustAgree runs p on both schedulers, fails on any divergence, and
// returns the sim.Scheduler's trace.
func mustAgree(t *testing.T, p Program) Trace {
	t.Helper()
	if report := Check(p); report != "" {
		t.Fatal(report)
	}
	return p.Run(sim.NewScheduler())
}

// fireTimes lists the times of tr's fires in order.
func fireTimes(tr Trace) []sim.Time {
	at := make([]sim.Time, len(tr.Fires))
	for i, f := range tr.Fires {
		at[i] = f.At
	}
	return at
}

func TestDeepFillAndDrain(t *testing.T) {
	// A queue filled 4,096 deep in scrambled time order, with every
	// timestamp shared by four events, then drained: each push lands
	// mid-queue and same-tick FIFO must hold across the whole depth.
	const n = 4096
	var p Program
	for i := 0; i < n; i++ {
		p.Ops = append(p.Ops, Op{Kind: OpScheduleCall, Delay: sim.Time((i*2654435761)%(n/4)) * sim.Nanosecond})
	}
	tr := mustAgree(t, p)
	if got := tr.Marks[n-1].Pending; got != n {
		t.Fatalf("Pending after the fill = %d, want %d", got, n)
	}
	if len(tr.Fires) != n || tr.Fired != n {
		t.Fatalf("fired %d (log %d), want %d", tr.Fired, len(tr.Fires), n)
	}
	for i := 1; i < n; i++ {
		prev, cur := tr.Fires[i-1], tr.Fires[i]
		if cur.At < prev.At || (cur.At == prev.At && cur.ID < prev.ID) {
			t.Fatalf("fire %d out of (when, seq) order: %+v after %+v", i, cur, prev)
		}
	}
}

func TestSparseYears(t *testing.T) {
	// Events seconds apart, scheduled latest first.
	times := []sim.Time{0, sim.Second, 3 * sim.Second, 100 * sim.Second, 101 * sim.Second}
	var p Program
	for i := len(times) - 1; i >= 0; i-- {
		p.Ops = append(p.Ops, Op{Kind: OpScheduleCall, Delay: times[i]})
	}
	got := fireTimes(mustAgree(t, p))
	if len(got) != len(times) {
		t.Fatalf("fired %v, want %v", got, times)
	}
	for i := range times {
		if got[i] != times[i] {
			t.Fatalf("fired %v, want %v", got, times)
		}
	}
}

func TestFarNearInterleaved(t *testing.T) {
	// A far event queued first, then a 201-tick ticker 50 ms apart whose
	// last tick falls on the far event's time. The ticker also queues a
	// plain event due with every third tick, so near events keep
	// arriving while the far one waits: 1 + 201 + 66 fires. The far
	// event, queued before everything else, fires after every earlier
	// event and before the ticker's last events at the same time.
	p := Program{Ops: []Op{
		{Kind: OpScheduleCall, Delay: 10 * sim.Second},
		{Kind: OpTicker, Delay: 0, Child: 50 * sim.Millisecond, Ticks: 201},
	}}
	tr := mustAgree(t, p)
	if len(tr.Fires) != 268 {
		t.Fatalf("fired %d, want 268", len(tr.Fires))
	}
	far := -1
	for i, f := range tr.Fires {
		if f.ID == 0 {
			far = i
		}
	}
	if far < 0 || far == len(tr.Fires)-1 || tr.Fires[far].At != 10*sim.Second {
		t.Fatalf("far event fired at index %d of %d, want at 10s before the last tick", far, len(tr.Fires))
	}
	for i, f := range tr.Fires {
		if (i < far) != (f.At < 10*sim.Second) {
			t.Fatalf("fire %d %+v is on the wrong side of the far event (index %d)", i, f, far)
		}
	}
}

func TestInsertBeforeFarPeek(t *testing.T) {
	// RunUntil ends its window by peeking at a far event, and an event
	// then scheduled between the clock and that event must fire first:
	// a queue that advanced any internal cursor to the peeked event
	// would hand the far event out first.
	p := Program{Ops: []Op{
		{Kind: OpScheduleCall, Delay: 3345},
		{Kind: OpRunUntil, Delay: 1105},
		{Kind: OpScheduleCall, Delay: 93},
	}}
	tr := mustAgree(t, p)
	if tr.Marks[1].Next != 3345 {
		t.Fatalf("RunUntil lookahead = %v, want 3345ps", tr.Marks[1].Next)
	}
	if got := fireTimes(tr); len(got) != 2 || got[0] != 1198 || got[1] != 3345 {
		t.Fatalf("fired %v, want [1198 3345]", got)
	}
}
