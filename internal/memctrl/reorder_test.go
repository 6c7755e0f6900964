package memctrl

import (
	"testing"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/dram"
	"memsim/internal/sim"
)

// newReorderController builds a 1-channel/1-device system where bank
// geometry is easy to reason about under the base mapping, with pol
// installed as its issue policy (nil keeps the default). requesters
// is 1 for a private controller, more for a shared one.
func newReorderController(t *testing.T, pol IssuePolicy, requesters int) (*sim.Scheduler, *Controller, addrmap.Mapper) {
	t.Helper()
	g := addrmap.Geometry{Channels: 1, DevicesPerChannel: 1}
	ch, err := channel.New(channel.Config{Geometry: g, Timing: dram.Part800x40})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := addrmap.NewBase(g)
	s := sim.NewScheduler()
	c := NewShared(s, ch, m, requesters)
	if pol != nil {
		c.SetPolicy(pol)
	}
	return s, c, m
}

// reorderCase is a demand queue submitted at one instant: a priming
// access opens row 0 of bank 0, and the requests behind it either
// conflict with that row (same bank, next row) or hit it.
type reorderCase struct {
	names []string
	addrs []uint64
}

var conflictAddr = uint64(dram.RowBytes) * dram.BanksPerDevice

var (
	// hitBehindConflict queues a row conflict, then a row hit.
	hitBehindConflict = reorderCase{
		names: []string{"prime", "conflict", "hit"},
		addrs: []uint64{0, conflictAddr, 512},
	}
	// hitBehindTwoConflicts puts the row hit at queue position 2.
	hitBehindTwoConflicts = reorderCase{
		names: []string{"prime", "c1", "c2", "hit"},
		addrs: []uint64{0, conflictAddr, conflictAddr + 1024, 512},
	}
)

// submitCase queues rc's demands from requester sys. The returned
// slice fills with the request names in first-data order as the
// scheduler runs.
func submitCase(c *Controller, sys uint16, rc reorderCase) *[]string {
	order := new([]string)
	for i, addr := range rc.addrs {
		name := rc.names[i]
		c.Submit(&Request{Sys: sys, Addr: addr, Size: 64, Class: channel.Demand,
			OnFirstData: func(sim.Time) { *order = append(*order, name) }})
	}
	return order
}

func TestReorderPrefersOpenRow(t *testing.T) {
	s, c, _ := newReorderController(t, FRFCFS{Window: 4}, 1)
	// With reordering the row hit goes ahead of the older conflict.
	order := submitCase(c, 0, hitBehindConflict)
	s.Run()
	if len(*order) != 3 || (*order)[1] != "hit" {
		t.Fatalf("order = %v, want the open-row request promoted", *order)
	}
	if c.Stats().Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", c.Stats().Reordered)
	}
}

func TestInOrderByDefault(t *testing.T) {
	s, c, _ := newReorderController(t, nil, 1)
	if got := c.Policy().Name(); got != "fcfs" {
		t.Fatalf("default policy = %q, want fcfs", got)
	}
	// SetPolicy(nil) restores the default after another policy.
	c.SetPolicy(FRFCFS{Window: 4})
	c.SetPolicy(nil)
	order := submitCase(c, 0, hitBehindConflict)
	s.Run()
	if len(*order) != 3 || (*order)[1] != "conflict" {
		t.Fatalf("order = %v, want strict submission order", *order)
	}
	if c.Stats().Reordered != 0 {
		t.Fatalf("Reordered = %d, want 0", c.Stats().Reordered)
	}
}

func TestReorderWindowBounded(t *testing.T) {
	s, c, _ := newReorderController(t, FRFCFS{Window: 2}, 1)
	// With window 2 the hit (at queue position 2) is out of reach for
	// the first decision.
	order := submitCase(c, 0, hitBehindTwoConflicts)
	s.Run()
	if (*order)[1] != "c1" {
		t.Fatalf("order = %v; request beyond the window must not be promoted", *order)
	}
}
