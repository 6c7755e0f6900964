package core

import (
	"strings"
	"testing"

	"memsim/internal/cache"
	"memsim/internal/sim"
	"memsim/internal/trace"
)

// starvedSystem builds a tuned system with one MSHR and an empty
// instruction stream, so a test drives the hierarchy directly.
func starvedSystem(t *testing.T, paranoid bool) (*System, *hierarchy) {
	t.Helper()
	return testSystem(t, func(c *Config) {
		c.MSHRs = 1
		c.Harden.Paranoid = paranoid
	})
}

func l1l2(s *System) [2]cache.Stats { return [2]cache.Stats{s.l1.Stats(), s.l2.Stats()} }

func deltaL1L2(s *System, base [2]cache.Stats) [2]cache.Stats {
	now := l1l2(s)
	return [2]cache.Stats{now[0].Delta(base[0]), now[1].Delta(base[1])}
}

// TestRefusalReplay checks the replayed refusal: a retry at an unchanged
// generation counts exactly what the full lookup counted, and a prefetch
// of the refused block entering the fill index ends the replay.
func TestRefusalReplay(t *testing.T) {
	s, h := starvedSystem(t, false)
	a := uint64(0x40000) // region-aligned
	x := a + uint64(s.cfg.L2Block)
	if !h.Access(a, trace.Load, func(sim.Time) {}).Accepted {
		t.Fatal("first miss refused with a free MSHR")
	}

	base := l1l2(s)
	if h.Access(x, trace.Store, nil).Accepted {
		t.Fatal("miss accepted with every MSHR busy")
	}
	full := deltaL1L2(s, base)
	if s.refused != (refusal{x, true, s.gen}) {
		t.Fatalf("refusal not recorded: %+v at generation %d", s.refused, s.gen)
	}
	base = l1l2(s)
	if h.Access(x, trace.Store, nil).Accepted {
		t.Fatal("replayed refusal accepted")
	}
	if replay := deltaL1L2(s, base); replay != full {
		t.Fatalf("replay counted %+v, full lookup %+v", replay, full)
	}

	// The region around a queues x's block first; the idle controller
	// pulls it while a's demand fill is still outstanding.
	for s.fills.find(x) == nil {
		if s.held < s.cfg.MSHRs || !s.sched.Step() {
			t.Fatal("demand fill finished before the prefetch of x issued")
		}
	}
	if !h.Access(x, trace.Store, nil).Accepted {
		t.Fatal("refusal replayed after a prefetch of its block entered the fill index")
	}
}

// TestParanoidRefusalCrossCheck checks that paranoid mode re-derives a
// replayed refusal and panics when the hierarchy would in fact accept
// the access: here a stale refusal record for a block an MSHR holds.
func TestParanoidRefusalCrossCheck(t *testing.T) {
	s, h := starvedSystem(t, true)
	a := uint64(0x40000)
	if !h.Access(a, trace.Load, func(sim.Time) {}).Accepted {
		t.Fatal("first miss refused with a free MSHR")
	}
	s.refused = refusal{a, false, s.gen}
	defer func() {
		p := recover()
		msg, _ := p.(string)
		if !strings.Contains(msg, "replayed refusal") || !strings.Contains(msg, "an MSHR holds it") {
			t.Fatalf("stale refusal not caught: panic %v", p)
		}
	}()
	h.Access(a, trace.Load, func(sim.Time) {})
}
