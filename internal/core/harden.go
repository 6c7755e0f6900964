package core

import (
	"fmt"

	"memsim/internal/harden"
)

// defaultParanoidEvery is the invariant-check interval, in core cycles,
// when paranoid mode is on but no interval was configured. Checks are
// read-only and O(system state), so a few thousand cycles keeps the
// overhead low while still bounding how long corruption can fester.
const defaultParanoidEvery = 4096

// armHarden wires the configured robustness hooks into a freshly built
// system: the forward-progress watchdog and the paranoid invariant
// checker. Both are read-only with respect to simulation state, so
// arming them leaves the run's results unchanged.
func (s *System) armHarden() {
	h := s.cfg.Harden
	if h.WatchdogCycles > 0 {
		var wd harden.Watchdog
		window := s.clock.Cycles(h.WatchdogCycles)
		s.sched.Every(window, func() bool {
			if s.fatal != nil || s.core.Done() {
				return false
			}
			p := s.progress()
			if !wd.Observe(p) {
				s.fatal = &harden.WatchdogError{
					Now:          s.sched.Now(),
					WindowCycles: h.WatchdogCycles,
					Progress:     p,
					Dump:         s.dump(),
				}
				return false
			}
			return true
		})
	}

	if h.Paranoid {
		for _, c := range s.mem.ctrls {
			c.EnableTracking()
		}
		every := h.ParanoidEvery
		if every <= 0 {
			every = defaultParanoidEvery
		}
		interval := s.clock.Cycles(every)
		s.sched.Every(interval, func() bool {
			if s.fatal != nil || s.core.Done() {
				return false
			}
			if vs := s.checkInvariants(); len(vs) > 0 {
				s.fatal = &harden.InvariantError{
					Now:        s.sched.Now(),
					Violations: vs,
					Dump:       s.dump(),
				}
				return false
			}
			// With nothing else pending the run is stuck in a way the
			// checks cannot see; re-arming would keep it ticking
			// forever, so let the queue drain into a deadlock error.
			return s.sched.Pending() > 0
		})
	}
}

// progress snapshots the three forward-progress counters the watchdog
// compares across windows: any one advancing means the system is alive.
func (s *System) progress() harden.Progress {
	var issued uint64
	_, st := s.mem.Stats()
	for _, n := range st.Issued {
		issued += n
	}
	return harden.Progress{
		Retired:     s.core.Stats().Retired,
		Issued:      issued,
		Completions: s.completions,
	}
}

// checkInvariants runs the paranoid cross-layer accounting checks and
// returns every violation found, in deterministic order.
func (s *System) checkInvariants() []string {
	var vs []string
	add := func(format string, args ...any) { vs = append(vs, fmt.Sprintf(format, args...)) }

	if err := s.l1.CheckIntegrity(); err != nil {
		add("L1: %v", err)
	}
	if err := s.l2.CheckIntegrity(); err != nil {
		add("L2: %v", err)
	}
	if s.pfbuffer != nil {
		if err := s.pfbuffer.CheckIntegrity(); err != nil {
			add("pfbuffer: %v", err)
		}
	}

	// Every fill in flight must have a transfer queued or in flight at
	// its controller; a fill with nothing behind it will never drain,
	// and one holding an MSHR silently eats miss capacity.
	for _, r := range s.fills.sorted() {
		g, local := s.mem.route(0, r.block)
		if s.mem.ctrls[g].HasPending(local) {
			continue
		}
		if r.kind == prefetchReq {
			add("prefetch fill %#x has no queued or in-flight transfer at controller %d", r.block, g)
		} else {
			add("MSHR block %#x has no queued or in-flight transfer at controller %d", r.block, g)
		}
	}

	// A parked core skips retrying its oldest refused access until the
	// hierarchy unparks it, so that access must still be refused now: a
	// change that could let it in without unparking would stall it.
	if addr, ok := s.core.Parked(); ok {
		addr %= s.capacity
		if s.held < s.cfg.MSHRs || s.onChipOrInFlight(addr) {
			add("core parked on %#x, which the hierarchy would accept (%d/%d MSHRs held)", addr, s.held, s.cfg.MSHRs)
		}
	}

	if ic, ok := s.pf.(interface{ CheckIntegrity() error }); ok {
		if err := ic.CheckIntegrity(); err != nil {
			add("prefetch: %v", err)
		}
	}

	now := s.sched.Now()
	for g, c := range s.mem.ctrls {
		if err := c.Channel().CheckSane(now); err != nil {
			add("channel %d: %v", g, err)
		}
	}
	return vs
}

// dump renders the structured diagnostic state attached to every
// hardening failure: enough of each layer to see where requests piled
// up without attaching a debugger to a finished run.
func (s *System) dump() string {
	var r harden.Report
	now := s.sched.Now()
	r.Section("sim")
	r.Linef("now=%v events=%d", now, s.sched.EventsFired())
	r.Linef("%s", s.sched.DebugState())
	r.Section("cpu")
	r.Linef("%s", s.core.DebugState())
	r.Section("mshrs")
	r.Linef("%d/%d held, %d fills in flight", s.held, s.cfg.MSHRs, s.fills.n)
	for _, f := range s.fills.sorted() {
		r.Linef("  block=%#x kind=%s waiters=%d", f.block, f.kind, len(f.waiters))
	}
	for g, c := range s.mem.ctrls {
		r.Section(fmt.Sprintf("memctrl[%d]", g))
		r.Linef("%s", c.DebugState(now))
		r.Linef("channel: %s", c.Channel().DebugState(now))
	}
	if s.pf != nil {
		r.Section("prefetch")
		r.Linef("stats=%+v", s.pf.Stats())
	}
	if s.tr != nil {
		r.Section("trace")
		r.Linef("emitted=%d dropped=%d; last %d events:", s.tr.Emitted(), s.tr.Dropped(), watchdogTraceEvents)
		for _, e := range s.tr.Last(watchdogTraceEvents) {
			r.Linef("%v %s group=%d a=%#x b=%d dur=%v", e.At, e.Kind, e.Group, e.A, e.B, e.Dur)
		}
	}
	return r.String()
}

// recoverCorruption converts a panic escaping the event loop into a
// structured CorruptionError carrying the diagnostic dump. Building the
// dump can itself touch the corrupted state, so it too is guarded.
func (s *System) recoverCorruption(p any) error {
	dump := func() (d string) {
		defer func() {
			if recover() != nil {
				d = "(dump unavailable: state too corrupted)"
			}
		}()
		return s.dump()
	}()
	return &harden.CorruptionError{PanicValue: p, Now: s.sched.Now(), Dump: dump}
}
