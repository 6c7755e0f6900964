package memctrl

import (
	"testing"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/dram"
	"memsim/internal/sim"
)

func newController(t *testing.T) (*sim.Scheduler, *Controller) {
	t.Helper()
	g := addrmap.Geometry{Channels: 4, DevicesPerChannel: 2}
	ch, err := channel.New(channel.Config{Geometry: g, Timing: dram.Part800x40})
	if err != nil {
		t.Fatal(err)
	}
	m, err := addrmap.NewXOR(g)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewScheduler()
	return s, New(s, ch, m)
}

// queueSource serves prefetch requests from a fixed list.
type queueSource struct {
	reqs  []*Request
	calls int
}

func (q *queueSource) NextPrefetch(sim.Time) (*Request, bool) {
	q.calls++
	if len(q.reqs) == 0 {
		return nil, false
	}
	r := q.reqs[0]
	q.reqs = q.reqs[1:]
	return r, true
}

func TestDemandCompletion(t *testing.T) {
	s, c := newController(t)
	var first, last sim.Time
	c.Submit(&Request{
		Addr: 0x1000, Size: 64, Class: channel.Demand,
		OnFirstData: func(at sim.Time) { first = at },
		OnComplete:  func(at sim.Time) { last = at },
	})
	s.Run()
	// Cold bank: ACT + RD + data = 57.5 ns.
	if first != 57500*sim.Picosecond {
		t.Errorf("first data at %v, want 57.5ns", first)
	}
	if last != first {
		t.Errorf("64B on 4ch: last %v != first %v", last, first)
	}
	st := c.Stats()
	if st.Issued[channel.Demand] != 1 {
		t.Errorf("demand issued = %d", st.Issued[channel.Demand])
	}
	if st.MeanDemandLatency() != 57500*sim.Picosecond {
		t.Errorf("mean latency = %v", st.MeanDemandLatency())
	}
}

func TestDemandsIssueInOrder(t *testing.T) {
	s, c := newController(t)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.Submit(&Request{
			Addr: uint64(i) * 0x100000, Size: 64, Class: channel.Demand,
			OnFirstData: func(sim.Time) { order = append(order, i) },
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v, want in-order issue", order)
		}
	}
}

func TestWritebackYieldsToDemand(t *testing.T) {
	s, c := newController(t)
	var events []string
	// Submit a writeback first, then a demand at the same instant: the
	// access prioritizer must issue the demand first.
	c.Submit(&Request{Addr: 0x8000, Size: 64, Class: channel.Writeback, Write: true,
		OnComplete: func(sim.Time) { events = append(events, "wb") }})
	c.Submit(&Request{Addr: 0x1000, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time) { events = append(events, "demand") }})
	s.Run()
	if len(events) != 2 || events[0] != "demand" {
		t.Fatalf("events = %v, want demand first", events)
	}
}

func TestPrefetchOnlyWhenIdle(t *testing.T) {
	s, c := newController(t)
	var prefetchAt, demandDone sim.Time
	src := &queueSource{reqs: []*Request{{
		Addr: 0x2000, Size: 64, Class: channel.Prefetch,
		OnComplete: func(at sim.Time) { prefetchAt = at },
	}}}
	c.SetPrefetchSource(src)
	c.Submit(&Request{Addr: 0x1000, Size: 64, Class: channel.Demand,
		OnComplete: func(at sim.Time) { demandDone = at }})
	s.Run()
	if prefetchAt == 0 {
		t.Fatal("prefetch never issued")
	}
	if prefetchAt <= demandDone {
		t.Fatalf("prefetch completed at %v, before/with demand at %v; must wait for idle channel", prefetchAt, demandDone)
	}
}

func TestDemandBypassesQueuedPrefetches(t *testing.T) {
	// With a deep prefetch backlog, a demand miss arriving later must
	// still issue before the remaining prefetches.
	s, c := newController(t)
	var order []string
	var reqs []*Request
	for i := 0; i < 10; i++ {
		i := i
		reqs = append(reqs, &Request{
			Addr: 0x100000 + uint64(i)*64, Size: 64, Class: channel.Prefetch,
			OnComplete: func(sim.Time) { order = append(order, "pf") },
		})
	}
	src := &queueSource{reqs: reqs}
	c.SetPrefetchSource(src)
	c.Kick()
	// Let two prefetches go, then inject a demand.
	s.ScheduleCall(100*sim.Nanosecond, func(sim.Time, any) {
		c.Submit(&Request{Addr: 0x1000, Size: 64, Class: channel.Demand,
			OnFirstData: func(sim.Time) { order = append(order, "demand") }})
	}, nil)
	s.Run()
	// The demand must not be last: prefetches queued behind it at
	// submission time complete after it.
	idx := -1
	for i, e := range order {
		if e == "demand" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("demand never completed")
	}
	if idx == len(order)-1 {
		t.Fatal("demand completed after all prefetches; prioritizer failed")
	}
}

func TestUnscheduledPrefetchSharesDemandQueue(t *testing.T) {
	// Table 4's "FIFO prefetch" row: prefetches submitted as ordinary
	// requests serialize ahead of later demand misses.
	s, c := newController(t)
	var order []string
	for i := 0; i < 5; i++ {
		c.Submit(&Request{Addr: 0x200000 + uint64(i)*4096, Size: 64, Class: channel.Prefetch,
			OnComplete: func(sim.Time) { order = append(order, "pf") }})
	}
	c.Submit(&Request{Addr: 0x1000, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time) { order = append(order, "demand") }})
	s.Run()
	if order[len(order)-1] != "demand" {
		t.Fatalf("order = %v; unscheduled prefetches must delay the demand", order)
	}
	if c.Stats().Issued[channel.Prefetch] != 5 {
		t.Fatalf("prefetch issued = %d, want 5", c.Stats().Issued[channel.Prefetch])
	}
}

func TestKickWakesIdleController(t *testing.T) {
	s, c := newController(t)
	done := false
	src := &queueSource{}
	c.SetPrefetchSource(src)
	s.Run() // nothing pending; controller idle
	src.reqs = append(src.reqs, &Request{Addr: 0x3000, Size: 64, Class: channel.Prefetch,
		OnComplete: func(sim.Time) { done = true }})
	c.Kick()
	s.Run()
	if !done {
		t.Fatal("Kick did not wake the controller")
	}
}

func TestMeanLatencyGrowsUnderContention(t *testing.T) {
	// Saturating the channel with demands must raise the mean latency
	// well above the contentionless value.
	s, c := newController(t)
	n := 100
	for i := 0; i < n; i++ {
		c.Submit(&Request{Addr: uint64(i) * 0x40000, Size: 64, Class: channel.Demand})
	}
	s.Run()
	mean := c.Stats().MeanDemandLatency()
	if mean < 200*sim.Nanosecond {
		t.Fatalf("mean latency under saturation = %v, want queueing delays", mean)
	}
	if c.Stats().MaxDemandQueue < n/2 {
		t.Fatalf("MaxDemandQueue = %d", c.Stats().MaxDemandQueue)
	}
}

func TestPendingQuiescence(t *testing.T) {
	s, c := newController(t)
	if c.Pending() {
		t.Fatal("fresh controller pending")
	}
	c.Submit(&Request{Addr: 0x1000, Size: 64, Class: channel.Demand})
	if !c.Pending() {
		t.Fatal("controller not pending after submit")
	}
	s.Run()
	if c.Pending() {
		t.Fatal("controller pending after drain")
	}
}

func TestPrefetchSourceNotPolledWhenBusy(t *testing.T) {
	s, c := newController(t)
	src := &queueSource{}
	c.SetPrefetchSource(src)
	for i := 0; i < 20; i++ {
		c.Submit(&Request{Addr: uint64(i) * 0x40000, Size: 64, Class: channel.Demand})
	}
	s.Run()
	// The source is consulted only at idle instants; with a straight
	// demand backlog that is only at the very end.
	if src.calls > 2 {
		t.Fatalf("prefetch source polled %d times during demand backlog", src.calls)
	}
}

func TestStatsAddAndDelta(t *testing.T) {
	a := Stats{
		DemandLatency:   100 * sim.Nanosecond,
		DemandQueueWait: 40 * sim.Nanosecond,
		MaxDemandQueue:  3,
		Reordered:       2,
	}
	a.Issued[channel.Demand] = 5
	b := a
	b.MaxDemandQueue = 7
	sum := a.Add(b)
	if sum.DemandLatency != 200*sim.Nanosecond || sum.Issued[channel.Demand] != 10 {
		t.Fatalf("Add wrong: %+v", sum)
	}
	if sum.MaxDemandQueue != 7 {
		t.Fatalf("Add must take the larger high-water mark, got %d", sum.MaxDemandQueue)
	}
	d := sum.Delta(a)
	if d.DemandLatency != 100*sim.Nanosecond || d.Issued[channel.Demand] != 5 || d.Reordered != 2 {
		t.Fatalf("Delta wrong: %+v", d)
	}
}
