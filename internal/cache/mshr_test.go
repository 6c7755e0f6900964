package cache

import (
	"testing"

	"memsim/internal/sim"
)

// fnWaiter adapts a function to the Waiter interface.
type fnWaiter func(sim.Time)

func (f fnWaiter) Fire(at sim.Time) { f(at) }

func TestMSHRAllocateLookupComplete(t *testing.T) {
	tb := NewMSHRTable[fnWaiter](8)
	if tb.Capacity() != 8 || tb.Len() != 0 || tb.Full() {
		t.Fatal("fresh table state wrong")
	}
	m := tb.Allocate(0x40, false)
	if m.Block != 0x40 || m.PrefetchOnly {
		t.Fatalf("entry = %+v", m)
	}
	got, ok := tb.Lookup(0x40)
	if !ok || got != m {
		t.Fatal("Lookup did not find allocated entry")
	}
	var fillAt sim.Time
	m.Waiters = append(m.Waiters, fnWaiter(func(at sim.Time) { fillAt = at }))
	tb.Complete(0x40, 123*sim.Nanosecond)
	if fillAt != 123*sim.Nanosecond {
		t.Fatalf("waiter fired with %v, want 123ns", fillAt)
	}
	if _, ok := tb.Lookup(0x40); ok {
		t.Fatal("entry present after Complete")
	}
}

func TestMSHRMergeSemantics(t *testing.T) {
	tb := NewMSHRTable[fnWaiter](2)
	m := tb.Allocate(0x80, true)
	if !m.PrefetchOnly {
		t.Fatal("prefetch allocation not marked")
	}
	// A demand miss merging into the prefetch clears PrefetchOnly.
	m.PrefetchOnly = false
	n := 0
	m.Waiters = append(m.Waiters, fnWaiter(func(sim.Time) { n++ }), fnWaiter(func(sim.Time) { n++ }))
	tb.Complete(0x80, 0)
	if n != 2 {
		t.Fatalf("waiters fired %d times, want 2", n)
	}
}

func TestMSHRFull(t *testing.T) {
	tb := NewMSHRTable[fnWaiter](2)
	tb.Allocate(0x40, false)
	tb.Allocate(0x80, false)
	if !tb.Full() {
		t.Fatal("table not full at capacity")
	}
	if tb.HighWater != 2 {
		t.Fatalf("HighWater = %d, want 2", tb.HighWater)
	}
	tb.Complete(0x40, 0)
	if tb.Full() {
		t.Fatal("table full after Complete")
	}
}

func TestMSHRAllocateFullPanics(t *testing.T) {
	tb := NewMSHRTable[fnWaiter](1)
	tb.Allocate(0x40, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Allocate on full table did not panic")
		}
	}()
	tb.Allocate(0x80, false)
}

func TestMSHRDuplicatePanics(t *testing.T) {
	tb := NewMSHRTable[fnWaiter](4)
	tb.Allocate(0x40, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Allocate did not panic")
		}
	}()
	tb.Allocate(0x40, false)
}

func TestMSHRCompleteUnknownPanics(t *testing.T) {
	tb := NewMSHRTable[fnWaiter](4)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete of unknown block did not panic")
		}
	}()
	tb.Complete(0x40, 0)
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMSHRTable[fnWaiter](0) did not panic")
		}
	}()
	NewMSHRTable[fnWaiter](0)
}
