package memctrl

import (
	"reflect"
	"testing"
	"unsafe"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/dram"
	"memsim/internal/sim"
)

func newShared(t *testing.T, requesters int) (*sim.Scheduler, *Controller) {
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
	return s, NewShared(s, ch, m, requesters)
}

// TestRequestIsEightWords pins the request's size: a queued writeback
// holds one, and mcf's writeback queue grows without bound, so a ninth
// word would move every request into the next allocation size class.
func TestRequestIsEightWords(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 64 {
		t.Fatalf("sizeof(Request) = %d bytes, want 64", got)
	}
}

func TestSharedUnknownRequesterPanics(t *testing.T) {
	_, c := newShared(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Submit from requester 2 of 2 did not panic")
		}
	}()
	c.Submit(&Request{Sys: 2, Addr: 0x1000, Size: 64, Class: channel.Demand})
}

func TestSharedRequestersAlternate(t *testing.T) {
	// Requester 0 queues all its demands before requester 1 queues
	// any; round-robin still alternates the grants.
	s, c := newShared(t, 2)
	var order []uint16
	for sys := uint16(0); sys < 2; sys++ {
		for i := 0; i < 4; i++ {
			c.Submit(&Request{Sys: sys, Addr: uint64(int(sys)*4+i) * 0x100000, Size: 64, Class: channel.Demand,
				OnFirstData: func(sim.Time) { order = append(order, sys) }})
		}
	}
	s.Run()
	if want := []uint16{0, 1, 0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("grant order = %v, want %v", order, want)
	}
	for sys := range 2 {
		if sh := c.Share(sys); sh.Issued[channel.Demand] != 4 || sh.MaxQueue != 4 {
			t.Errorf("requester %d share = %+v, want 4 demands issued, max queue 4", sys, sh)
		}
	}
}

func TestSharedDemandBeforeOtherWriteback(t *testing.T) {
	s, c := newShared(t, 2)
	var events []string
	c.Submit(&Request{Sys: 0, Addr: 0x8000, Size: 64, Class: channel.Writeback, Write: true,
		OnComplete: func(sim.Time) { events = append(events, "wb0") }})
	c.Submit(&Request{Sys: 1, Addr: 0x1000, Size: 64, Class: channel.Demand,
		OnFirstData: func(sim.Time) { events = append(events, "demand1") }})
	s.Run()
	if !reflect.DeepEqual(events, []string{"demand1", "wb0"}) {
		t.Fatalf("events = %v, want requester 1's demand before requester 0's writeback", events)
	}
}

func TestSharedPrefetchWaitsInDemandQueue(t *testing.T) {
	// An unscheduled prefetch queues FIFO with its requester's demands,
	// ahead of every writeback.
	s, c := newShared(t, 2)
	var events []string
	note := func(name string) func(sim.Time) {
		return func(sim.Time) { events = append(events, name) }
	}
	c.Submit(&Request{Sys: 1, Addr: 0x8000, Size: 64, Class: channel.Writeback, Write: true, OnFirstData: note("wb1")})
	c.Submit(&Request{Sys: 0, Addr: 0x200000, Size: 64, Class: channel.Prefetch, OnFirstData: note("pf0")})
	c.Submit(&Request{Sys: 0, Addr: 0x1000, Size: 64, Class: channel.Demand, OnFirstData: note("demand0")})
	s.Run()
	if !reflect.DeepEqual(events, []string{"pf0", "demand0", "wb1"}) {
		t.Fatalf("events = %v, want the prefetch in order with the demand, both before the writeback", events)
	}
}

func TestSharedDataTimeSumsToDataBusy(t *testing.T) {
	s, c := newShared(t, 3)
	for i := 0; i < 60; i++ {
		class := []channel.Class{channel.Demand, channel.Writeback, channel.Prefetch}[i%3]
		c.Submit(&Request{Sys: uint16(i % 3), Addr: uint64(i) * 0x9040, Size: 64 << (i % 2),
			Class: class, Write: class == channel.Writeback})
	}
	s.Run()
	var sum sim.Time
	var issued uint64
	for sys := range 3 {
		sum += c.Share(sys).DataTime
		issued += c.Share(sys).Total()
	}
	if busy := c.Channel().Stats().DataBusy; sum != busy || busy == 0 {
		t.Fatalf("summed share DataTime = %v, channel DataBusy = %v", sum, busy)
	}
	if issued != 60 {
		t.Fatalf("shares account %d grants, want 60", issued)
	}
}

// TestSharedSingleRequesterMatchesPrivate runs the reorder scenarios
// from one requester of a shared controller and checks that every
// policy issues exactly what it issues on a private controller.
func TestSharedSingleRequesterMatchesPrivate(t *testing.T) {
	for _, pol := range []IssuePolicy{FCFS{}, FRFCFS{}, FRFCFS{Window: 2}} {
		for _, rc := range []reorderCase{hitBehindConflict, hitBehindTwoConflicts} {
			run := func(requesters int, sys uint16) ([]string, []decision, Stats) {
				rec := &recordingPolicy{IssuePolicy: pol}
				s, c, _ := newReorderController(t, rec, requesters)
				order := submitCase(c, sys, rc)
				s.Run()
				return *order, rec.recs, c.Stats()
			}
			wantOrder, wantRecs, wantStats := run(1, 0)
			gotOrder, gotRecs, gotStats := run(3, 1)
			if !reflect.DeepEqual(gotOrder, wantOrder) || !reflect.DeepEqual(gotRecs, wantRecs) || gotStats != wantStats {
				t.Errorf("%s on %v: shared issued %v (stats %+v), private %v (stats %+v)",
					pol.Name(), rc.names, gotOrder, gotStats, wantOrder, wantStats)
			}
		}
	}
}
