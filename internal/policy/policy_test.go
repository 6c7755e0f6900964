package policy

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/addrmap"
	"memsim/internal/harden"
	"memsim/internal/memctrl"
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
	r := NewRegistry[int, int]("testkind", "Test", "")
	r.Register("x", Scheme[int, int]{})
	first := mustPanic(t, func() { r.Register("x", Scheme[int, int]{}) })
	second := mustPanic(t, func() { r.Register("x", Scheme[int, int]{}) })
	want := `policy: duplicate testkind scheme "x"`
	if first != want {
		t.Fatalf("panic message %q, want %q", first, want)
	}
	if first != second {
		t.Fatalf("panic message not deterministic: %q then %q", first, second)
	}
	if msg := mustPanic(t, func() { r.Register("", Scheme[int, int]{}) }); msg != "policy: empty testkind scheme name" {
		t.Fatalf("empty-name panic message %q", msg)
	}
}

// TestUnknownLookupError pins the error text: it names the kind, the
// bad name, and the full registered set in sorted order.
func TestUnknownLookupError(t *testing.T) {
	r := NewRegistry[int, int]("testkind", "Test", "")
	r.Register("b", Scheme[int, int]{})
	r.Register("a", Scheme[int, int]{})
	_, err := r.build("nope", 0)
	if err == nil {
		t.Fatal("no error for unknown scheme")
	}
	want := `policy: unknown testkind scheme "nope" (registered: a, b)`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err.Error(), want)
	}
}

// TestRegisteredNames locks the zoo membership of all five tables; a
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
		{"interleaving", Interleavings.Names(), []string{"ganged", "independent"}},
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
	alternatives := func(primary string, window int) []string {
		var names []string
		Sched.Alternatives(primary, SchedParams{Window: window}, func(name string, pol memctrl.IssuePolicy) {
			if pol.Name() != name {
				t.Errorf("alternative %q built %q", name, pol.Name())
			}
			names = append(names, name)
		})
		return names
	}
	if got, want := alternatives("fcfs", 0), []string{"frfcfs", "frfcfs-cap"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("alternatives for fcfs = %v, want %v", got, want)
	}
	if got, want := alternatives("frfcfs-cap", 8), []string{"fcfs", "frfcfs"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("alternatives for frfcfs-cap = %v, want %v", got, want)
	}
	// The empty name resolves before the primary is left out.
	if got, want := alternatives("", 0), []string{"frfcfs", "frfcfs-cap"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("alternatives for the empty name = %v, want %v", got, want)
	}
}

// TestFallbacks pins each axis's empty-name default and the fallback
// knobs an entry fills in for a config that left them zero.
func TestFallbacks(t *testing.T) {
	for _, tc := range []struct {
		axis, got, want string
	}{
		{"sched", Sched.Resolve(""), "fcfs"},
		{"mapping", Mappings.Resolve(""), ""},
		{"timing", Timings.Resolve(""), "flat"},
		{"prefetch", Prefetchers.Resolve(""), "region"},
		{"interleaving", Interleavings.Resolve(""), "ganged"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: empty name resolves to %q, want %q", tc.axis, tc.got, tc.want)
		}
	}
	if got := Sched.Fill("frfcfs-cap", SchedParams{}); got.Window != 8 {
		t.Errorf("frfcfs-cap fallback window %d, want 8", got.Window)
	}
	if got := Sched.Fill("frfcfs-cap", SchedParams{Window: 16}); got.Window != 16 {
		t.Errorf("frfcfs-cap overrode a set window: %d", got.Window)
	}
	if got := Sched.Fill("fcfs", SchedParams{}); got.Window != 0 {
		t.Errorf("fcfs filled a window: %d", got.Window)
	}
	for _, name := range []string{"sequential", "stream"} {
		if got := Prefetchers.Fill(name, PrefetchParams{}); got != (PrefetchParams{Lookahead: 4}) {
			t.Errorf("%s fallback = %+v, want Lookahead 4 only", name, got)
		}
	}
	if got := Prefetchers.Fill("", PrefetchParams{}); got != (PrefetchParams{RegionBytes: 4096, QueueDepth: 8}) {
		t.Errorf("region fallback = %+v, want RegionBytes 4096, QueueDepth 8", got)
	}
}

// TestValidateFields pins the ConfigError field of each axis's
// rejections.
func TestValidateFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want []string
	}{
		{"unknown mapping", Mappings.Validate("hash", addrmap.Geometry{}), []string{"Mapping"}},
		{"empty mapping", Mappings.Validate("", addrmap.Geometry{}), []string{"Mapping"}},
		{"unknown sched", Sched.Validate("lifo", SchedParams{}), []string{"SchedPolicy"}},
		{"frfcfs-cap window", Sched.Validate("frfcfs-cap", SchedParams{Window: 1}), []string{"SchedPolicy"}},
		{"window under the default", Sched.Validate("", SchedParams{Window: 2}), []string{"ReorderWindow"}},
		{"window under fcfs", Sched.Validate("fcfs", SchedParams{Window: 8}), []string{"ReorderWindow"}},
		{"window under frfcfs", Sched.Validate("frfcfs", SchedParams{Window: 8}), []string{"ReorderWindow"}},
		{"unknown timing", Timings.Validate("fast", TimingParams{}), []string{"BankTiming"}},
		{"unknown interleaving", Interleavings.Validate("diagonal", addrmap.Geometry{}), []string{"Interleaving"}},
		{"unknown prefetch", Prefetchers.Validate("oracle", PrefetchParams{}), []string{"Prefetch.Scheme"}},
		{"region", Prefetchers.Validate("region", PrefetchParams{BlockBytes: 64}),
			[]string{"Prefetch.RegionBytes", "Prefetch.QueueDepth"}},
		{"stream", Prefetchers.Validate("stream", PrefetchParams{TableSize: -1}),
			[]string{"Prefetch.Lookahead", "Prefetch.TableSize"}},
	} {
		var ce *harden.ConfigError
		if !errors.As(tc.err, &ce) {
			t.Errorf("%s: err = %v, want a *harden.ConfigError", tc.name, tc.err)
			continue
		}
		var got []string
		for _, f := range ce.Fields {
			got = append(got, f.Field)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fields %v, want %v", tc.name, got, tc.want)
		}
	}
	// A window of 1 scans only the oldest entry: in-order issue, which
	// every policy accepts.
	for _, name := range []string{"", "fcfs", "frfcfs"} {
		if err := Sched.Validate(name, SchedParams{Window: 1}); err != nil {
			t.Errorf("%q with window 1 rejected: %v", name, err)
		}
	}
}
