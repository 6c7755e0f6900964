package core

import (
	"fmt"

	"memsim/internal/channel"
	"memsim/internal/harden"
	"memsim/internal/harden/inject"
	"memsim/internal/memctrl"
)

// defaultParanoidEvery is the invariant-check interval, in core cycles,
// when paranoid mode is on but no interval was configured. Checks are
// read-only and O(system state), so a few thousand cycles keeps the
// overhead low while still bounding how long corruption can fester.
const defaultParanoidEvery = 4096

// stormSlice is the bus time one injected refresh-storm burns per
// channel access: twice the channel sanity horizon, so the invariant
// checker flags the very first stormed access and the watchdog sees
// whole windows pass between completions.
const stormSlice = 2 * channel.SaneHorizon

// armHarden wires the configured robustness hooks into a freshly built
// system: the fault injector, the forward-progress watchdog, and the
// paranoid invariant checker. All hooks are read-only with respect to
// simulation state (the injector's whole point is to mutate it, but
// only when armed), so an unarmed run is bit-identical to one that
// never called this.
func (s *System) armHarden() {
	h := s.cfg.Harden
	if h.Inject.Enabled() {
		s.inj = inject.New(h.Inject)
	}

	if h.WatchdogCycles > 0 {
		wd := harden.NewWatchdog()
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
		for _, c := range s.ctrls {
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
			return true
		})
	}
}

// progress snapshots the three forward-progress counters the watchdog
// compares across windows: any one advancing means the system is alive.
func (s *System) progress() harden.Progress {
	var issued uint64
	for _, c := range s.ctrls {
		st := c.Stats()
		for _, n := range st.Issued {
			issued += n
		}
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
		g, local := s.stripe(r.block)
		if s.ctrls[g].HasPending(local) {
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
	for g, ch := range s.chns {
		if err := ch.CheckSane(now); err != nil {
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
	for g := range s.ctrls {
		r.Section(fmt.Sprintf("memctrl[%d]", g))
		r.Linef("%s", s.ctrls[g].DebugState(now))
		r.Linef("channel: %s", s.chns[g].DebugState(now))
	}
	if s.pf != nil {
		r.Section("prefetch")
		r.Linef("stats=%+v", s.pf.Stats())
	}
	if s.inj != nil {
		r.Section("inject")
		r.Linef("plan=%s fired=%d", s.inj.Plan(), s.inj.Fired())
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

// injectOnSubmit applies the submission-domain faults to a demand
// request about to enter controller g. r.Addr is already group-local.
func (s *System) injectOnSubmit(g int, r *memctrl.Request) {
	if s.inj.Tick(inject.StuckBank) {
		c := s.maprs[g].Map(r.Addr)
		s.chns[g].StickBank(c.Device, c.Bank)
	}
	if s.inj.Tick(inject.RefreshStorm) {
		for _, ch := range s.chns {
			ch.InjectRefreshStorm(stormSlice)
		}
	}
	if s.inj.Tick(inject.PhantomMSHR) && s.held < s.cfg.MSHRs {
		// s.capacity is block-aligned and one past the highest real
		// address, so the phantom fill can never be completed by a
		// legitimate one.
		s.track(&missReq{s: s, kind: demandReq, block: s.capacity})
	}
}

// loseFill drops a demand fill's completion (inject.DropCompletion).
// Its MSHR leaks, held by a stand-in no transfer will complete, since
// r itself returns to the pool on release.
func (s *System) loseFill(r *missReq) {
	s.fills.remove(r)
	s.fills.add(&missReq{s: s, kind: r.kind, block: r.block, waiters: r.waiters})
	r.waiters = nil
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

// Fatal reports the hardening error that aborted the run, if any.
func (s *System) Fatal() error { return s.fatal }
