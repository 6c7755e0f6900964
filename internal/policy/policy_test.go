package policy

import (
	"reflect"
	"strings"
	"testing"

	"memsim/internal/addrmap"
)

// mustPanic runs f and returns the recovered panic message.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	panicked := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				msg = p.(string)
			}
		}()
		f()
	}()
	if !panicked {
		t.Fatal("no panic")
	}
	return msg
}

// TestDuplicateRegisterPanics pins the misuse contract: a duplicate
// registration panics, with a deterministic message (same both times).
func TestDuplicateRegisterPanics(t *testing.T) {
	r := NewRegistry[int]("testkind")
	r.Register("x", 1)
	first := mustPanic(t, func() { r.Register("x", 2) })
	second := mustPanic(t, func() { r.Register("x", 3) })
	want := `policy: duplicate testkind scheme "x"`
	if first != want {
		t.Fatalf("panic message %q, want %q", first, want)
	}
	if first != second {
		t.Fatalf("panic message not deterministic: %q then %q", first, second)
	}
	if msg := mustPanic(t, func() { r.Register("", 4) }); msg != "policy: empty testkind scheme name" {
		t.Fatalf("empty-name panic message %q", msg)
	}
}

// TestUnknownLookupError pins the error text: it names the kind, the
// bad name, and the full registered set in sorted order.
func TestUnknownLookupError(t *testing.T) {
	r := NewRegistry[int]("testkind")
	r.Register("b", 1)
	r.Register("a", 2)
	_, err := r.Lookup("nope")
	if err == nil {
		t.Fatal("no error for unknown scheme")
	}
	want := `policy: unknown testkind scheme "nope" (registered: a, b)`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err.Error(), want)
	}
}

// TestRegisteredNames locks the zoo membership of all four tables; a
// new scheme must extend this list (and its golden coverage).
func TestRegisteredNames(t *testing.T) {
	for _, tc := range []struct {
		kind string
		got  []string
		want []string
	}{
		{"sched", Sched.Names(), []string{"fcfs", "frfcfs", "frfcfs-cap"}},
		{"mapping", Mappings.Names(), []string{"base", "swap", "xor"}},
		{"prefetch", Prefetchers.Names(), []string{"region", "sequential", "stream"}},
		{"timing", Timings.Names(), []string{"flat", "rowreuse", "tiered"}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s zoo = %v, want %v", tc.kind, tc.got, tc.want)
		}
	}
}

// TestFactories exercises each factory's happy path and the
// parameter-validation edges.
func TestFactories(t *testing.T) {
	if _, err := NewSched("frfcfs-cap", SchedParams{Window: 1}); err == nil ||
		!strings.Contains(err.Error(), "reorder window >= 2") {
		t.Errorf("frfcfs-cap with window 1: err = %v, want window complaint", err)
	}
	pol, err := NewSched("frfcfs-cap", SchedParams{Window: 4})
	if err != nil || pol.Name() != "frfcfs-cap" {
		t.Errorf("frfcfs-cap: pol %v err %v", pol, err)
	}
	for _, name := range []string{"", "flat"} {
		tp, err := NewTiming(name, TimingParams{})
		if err != nil || tp != nil {
			t.Errorf("NewTiming(%q) = %v, %v; want nil, nil (the flat fast path)", name, tp, err)
		}
	}
	tp, err := NewTiming("tiered", TimingParams{NearRows: 16})
	if err != nil || tp == nil || tp.Name() != "tiered" {
		t.Errorf("NewTiming(tiered) = %v, %v", tp, err)
	}
	g := addrmap.Geometry{Channels: 4, DevicesPerChannel: 2}
	for _, name := range Mappings.Names() {
		mp, err := NewMapping(name, g)
		if err != nil || mp == nil {
			t.Errorf("NewMapping(%q) = %v, %v", name, mp, err)
		}
	}
	if _, err := NewMapping("hash", g); err == nil {
		t.Error("unknown mapping did not error")
	}
	for _, name := range Prefetchers.Names() {
		pf, err := NewPrefetcher(name, PrefetchParams{
			BlockBytes: 64, Lookahead: 4, RegionBytes: 4096, QueueDepth: 8,
		})
		if err != nil || pf == nil {
			t.Errorf("NewPrefetcher(%q) = %v, %v", name, pf, err)
		}
	}
	// A failed factory must return an untyped nil interface, not a
	// typed-nil pointer that passes != nil checks downstream.
	pf, err := NewPrefetcher("region", PrefetchParams{BlockBytes: 64, RegionBytes: 3})
	if err == nil {
		t.Fatal("invalid region config did not error")
	}
	if pf != nil {
		t.Fatalf("failed factory returned non-nil interface %#v", pf)
	}
}

// TestSchedAlternatives pins the counterfactual alternative set: every
// registered policy but the primary, in sorted order, constructible
// even when the primary run set no window.
func TestSchedAlternatives(t *testing.T) {
	alts := SchedAlternatives("fcfs", 0)
	var names []string
	for _, a := range alts {
		names = append(names, a.Name())
	}
	if want := []string{"frfcfs", "frfcfs-cap"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("alternatives for fcfs = %v, want %v", names, want)
	}
	if n := len(SchedAlternatives("frfcfs-cap", 8)); n != 2 {
		t.Fatalf("alternatives for frfcfs-cap = %d policies, want 2", n)
	}
}
