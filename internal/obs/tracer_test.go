package obs

import (
	"testing"

	"memsim/internal/sim"
)

// TestRingWraparound checks that a full ring overwrites oldest-first
// and Events reassembles emission order across the cursor.
func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4, func() sim.Time { return 0 })
	for i := 0; i < 10; i++ {
		tr.Emit(Event{At: sim.Time(i), A: uint64(i), Kind: EvBankActivate})
	}
	if n := len(tr.Events()); n != 4 {
		t.Fatalf("len(Events()) = %d, want 4", n)
	}
	if tr.Emitted() != 10 || tr.Dropped() != 6 {
		t.Errorf("Emitted/Dropped = %d/%d, want 10/6", tr.Emitted(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := uint64(6 + i); e.A != want {
			t.Errorf("Events()[%d].A = %d, want %d (oldest-first order)", i, e.A, want)
		}
	}
	last := tr.Last(2)
	if len(last) != 2 || last[0].A != 8 || last[1].A != 9 {
		t.Errorf("Last(2) = %+v, want events 8,9", last)
	}
}

// TestRingPartialFill checks order before the ring ever wraps.
func TestRingPartialFill(t *testing.T) {
	tr := NewTracer(8, func() sim.Time { return 0 })
	for i := 0; i < 3; i++ {
		tr.Emit(Event{A: uint64(i)})
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("Len = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.A != uint64(i) {
			t.Errorf("Events()[%d].A = %d, want %d", i, e.A, i)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", tr.Dropped())
	}
	if last := tr.Last(2); len(last) != 2 || last[0].A != 1 || last[1].A != 2 {
		t.Errorf("Last(2) = %+v, want events 1,2", last)
	}
	if last := tr.Last(5); len(last) != 3 || last[0].A != 0 {
		t.Errorf("Last(5) = %+v, want all 3 events", last)
	}
}

// TestNilTracer checks the disabled fast path end to end.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{})
	tr.Span(EvChannelBusy, 0, 0, 1, 0, 0)
	tr.Instant(EvLateMerge, 0, 0, 0)
	tr.InstantAt(EvBankActivate, 0, 5, 0, 0)
	if len(tr.Events()) != 0 || tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer reported activity")
	}
	if tr.Events() != nil {
		t.Error("nil tracer Events() non-nil")
	}
}

// TestInstantClock checks Instant stamps the simulated now and
// InstantAt an explicit time.
func TestInstantClock(t *testing.T) {
	now := sim.Time(42)
	tr := NewTracer(4, func() sim.Time { return now })
	tr.Instant(EvLateMerge, 0, 1, 0)
	now = 99
	tr.Instant(EvLateMerge, 0, 2, 0)
	tr.InstantAt(EvLateMerge, 0, 7, 3, 0)
	evs := tr.Events()
	if evs[0].At != 42 || evs[1].At != 99 || evs[2].At != 7 {
		t.Errorf("timestamps = %d,%d,%d, want 42,99,7", evs[0].At, evs[1].At, evs[2].At)
	}
}

// TestKindNamesRoundTrip checks every kind has a distinct name that
// KindByName resolves back.
func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v,%v, want %v,true", name, got, ok, k)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Error("KindByName accepted a foreign name")
	}
}
