package core

import (
	"context"
	"fmt"

	"memsim/internal/cache"
	"memsim/internal/channel"
	"memsim/internal/cpu"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
	"memsim/internal/sim"
	"memsim/internal/trace"
)

// System is one fully wired simulated machine. Build with New, run
// once with Run. Its memory is a one-requester Memory; a cluster
// member, built with NewExternal, holds an empty one and sends every
// request over the cluster's link instead.
type System struct {
	cfg   Config
	clock sim.Clock
	sched *sim.Scheduler

	core *cpu.CPU
	l1   *cache.Cache
	l2   *cache.Cache
	mem  *Memory
	// port is where every request leaves: mem for a private system,
	// the link for a cluster member.
	port ExternalMemory
	pf   prefetch.Prefetcher // nil when disabled
	// pfbuffer receives prefetch fills when the separate-buffer
	// alternative is configured; nil otherwise.
	pfbuffer *cache.Cache

	// pfBuf holds prefetch candidates routed to a controller that was
	// not the one asking (independent interleaving only).
	pfBuf [][]uint64
	// rowOpenFn is mem.rowOpen bound once, so bank-aware prefetch
	// pulls allocate no method value.
	rowOpenFn func(block uint64) bool

	// fills indexes every L2 fill in flight by block. held counts those
	// holding an MSHR: demand misses and software prefetches; hardware
	// prefetches hold none. spare is a detached waiter buffer: a demand
	// miss's first data swaps it in so requests merging while the old
	// waiters run land in other memory.
	fills fillIndex
	held  int
	spare []waiter

	// freeReqs and freeWBs are the free lists of pooled fill requests
	// (see missReq) and writebacks; both grow lazily to the peak number
	// in flight. recycleWB, bound once, returns a writeback to its list.
	freeReqs  *missReq
	freeWBs   []*memctrl.Request
	recycleWB func(*memctrl.Request)

	capacity uint64

	// OnProgress, when non-nil, is invoked at the event loop's coarse
	// sampling stride with the retired-instruction count and current
	// simulated time. It is a read-only observation hook (the service
	// layer surfaces it as per-job progress); it must not mutate
	// simulation state.
	OnProgress func(retired uint64, now sim.Time)

	// Hardening state (see harden.go): the first fatal hardening error
	// and the completion counter feeding the watchdog's progress
	// snapshot.
	fatal       error
	completions uint64

	// Observability (see obs.go): the run's observer (never nil after
	// New) and a direct tracer handle for hierarchy-level events (nil
	// when tracing is off; all emit methods are nil-safe).
	obs *obs.Observer
	tr  *obs.Tracer

	// System-level statistics.
	lateMerges      uint64 // demand misses merged into in-flight prefetches
	swPrefetches    uint64 // software prefetch fills requested
	prefetchSkipped uint64 // prefetch candidates dropped (resident or in flight)

	// baseline captures all statistics at the warmup boundary.
	baseline struct {
		taken           bool
		at              sim.Time
		retired         uint64
		l1, l2          cache.Stats
		buffer          cache.Stats
		chn             channel.Stats
		ctrl            memctrl.Stats
		pf              prefetch.Stats
		lateMerges      uint64
		swPrefetches    uint64
		prefetchSkipped uint64
		obsValues       map[string]float64
	}
}

// reqKind says which fill a pooled miss request carries.
type reqKind uint8

const (
	demandReq     reqKind = iota // L2 demand miss
	prefetchReq                  // hardware prefetch fill
	swPrefetchReq                // software prefetch fill
)

func (k reqKind) String() string {
	return [...]string{"demand", "prefetch", "swprefetch"}[k]
}

// missReq is one pooled fill transfer: the controller request plus the
// hierarchy state its completions need. Its callbacks are bound once,
// when the pool first builds it; the controller's (or fabric's)
// OnRelease puts it back on the free list after its last callback and
// any paranoid tracking release have run.
type missReq struct {
	memctrl.Request
	s     *System
	kind  reqKind
	block uint64 // global block address
	write bool   // a demand store miss installs the block dirty
	// demand is set when a demand miss merges into a hardware prefetch
	// fill; waiters are the requests merged into the fill.
	demand  bool
	waiters []waiter

	firstData, complete func(sim.Time)
	release             func(*memctrl.Request)
	// next links the free list while the request is pooled, and its
	// fillIndex chain while the fill is in flight.
	next *missReq
	live bool // taken from the free list, not yet released
}

// waiter is a request merged into an outstanding fill: the fill
// installs its block in the L1 and then completes the load (complete
// is nil for stores).
type waiter struct {
	s        *System
	addr     uint64
	write    bool
	complete func(sim.Time)
}

// fire runs the merged request with the fill time.
func (w waiter) fire(at sim.Time) {
	w.s.fillL1(w.addr, w.write)
	if w.complete != nil {
		w.complete(at)
	}
}

// wait merges w into the fill. A fresh waiter buffer starts with room
// for four: few fills gather more, so the buffers a pooled request
// carries seldom grow.
func (r *missReq) wait(w waiter) {
	if r.waiters == nil {
		r.waiters = make([]waiter, 0, 4)
	}
	r.waiters = append(r.waiters, w)
}

// newReq takes a fill request from the free list, building one when
// the list is empty, and sets it up as a kind transfer of one L2 block
// at addr for block.
func (s *System) newReq(kind reqKind, addr, block uint64, write bool) *missReq {
	r := s.freeReqs
	if r == nil {
		r = &missReq{s: s}
		r.firstData = r.onFirstData
		r.complete = r.onComplete
		r.release = r.recycle
	} else {
		s.freeReqs, r.next = r.next, nil
	}
	r.live = true
	r.kind, r.block, r.write = kind, block, write
	// Software prefetches keep the Demand class: they compete like loads.
	r.Request = memctrl.Request{Addr: addr, Size: uint64(s.cfg.L2Block), Class: channel.Demand, OnComplete: r.complete, OnRelease: r.release}
	switch kind {
	case demandReq:
		r.OnFirstData = r.firstData
	case prefetchReq:
		r.Class = channel.Prefetch
	}
	return r
}

// recycle returns a released fill request to the free list.
func (r *missReq) recycle(*memctrl.Request) {
	if !r.live {
		panic(fmt.Sprintf("core: request for block %#x released twice", r.block))
	}
	r.live = false
	r.demand = false
	r.waiters = r.waiters[:0]
	r.next, r.s.freeReqs = r.s.freeReqs, r
}

// newWriteback takes a writeback of size bytes at addr from its free
// list. Writebacks carry no callbacks, so they pool as bare requests
// released through one shared function: a writeback queue that demand
// misses starve for a long stretch then costs no more heap than
// unpooled requests did.
func (s *System) newWriteback(addr uint64, size int) *memctrl.Request {
	var r *memctrl.Request
	if n := len(s.freeWBs); n > 0 {
		r = s.freeWBs[n-1]
		s.freeWBs = s.freeWBs[:n-1]
	} else {
		r = new(memctrl.Request)
	}
	*r = memctrl.Request{Addr: addr, Size: uint64(size), Class: channel.Writeback, Write: true, OnRelease: s.recycleWB}
	return r
}

// track indexes a fill entering flight. A hardware prefetch may fetch
// the block of the access the core is parked on, which could now merge
// into it, so it unparks the core. It does not wake the core: a refused
// access is retried on the cycles the core runs anyway, and an extra
// cycle would let the retry merge earlier. A demand miss or software
// prefetch comes from the core's own access, which it makes only while
// nothing is blocked.
func (s *System) track(r *missReq) {
	s.fills.add(r)
	if r.kind != prefetchReq {
		s.held++
	} else {
		s.core.Unpark()
	}
}

// onFirstData releases the loads waiting on a demand miss once the
// critical word arrives; later merges complete at full-line install.
func (r *missReq) onFirstData(at sim.Time) {
	s := r.s
	ws := r.waiters
	r.waiters, s.spare = s.spare[:0], nil
	for _, w := range ws {
		w.fire(at)
	}
	s.spare = ws[:0]
}

// onComplete is the full-line arrival of a demand, prefetch or
// software-prefetch fill: it installs the block, retires the fill and
// runs the requests merged into it. A second completion of the same
// fill panics on the unknown block; Run recovers it into a
// CorruptionError.
func (r *missReq) onComplete(at sim.Time) {
	s := r.s
	s.completions++
	// A prefetch installs as prefetched unless a demand miss merged in.
	s.installL2(r.block, r.write, r.kind != demandReq && !r.demand)
	if r.demand && s.pf != nil {
		// A late prefetch the demand stream caught up with: count it
		// as used.
		s.pf.RecordSettled(true)
	}
	if !s.fills.remove(r) {
		panic(fmt.Sprintf("core: MSHR complete for unknown block %#x", r.block))
	}
	if r.kind != prefetchReq {
		s.held--
	}
	// A freed MSHR or the installed block may let the core's parked
	// access in. Unpark before the waiters run: a load they release may
	// be refused and park the core again.
	s.core.Unpark()
	for _, w := range r.waiters {
		w.fire(at)
	}
	s.core.Wake()
}

// ExternalMemory is where a system's requests leave: its own Memory,
// or for a cluster member the link to the shared one. Submit receives
// requests with the system's global physical addresses; the backend
// translates them and must eventually fire OnFirstData/OnComplete on
// the scheduler the system was built on.
type ExternalMemory interface {
	Submit(r *memctrl.Request)
}

// New builds a system over the given instruction stream.
func New(cfg Config, gen trace.Generator) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := sim.NewScheduler()
	mem, err := NewMemory(sched, cfg, 1)
	if err != nil {
		return nil, err
	}
	return newSystem(cfg, gen, mem, mem, sched)
}

// NewExternal builds a system whose memory requests route to mem
// instead of locally built controllers and channels, and whose events
// run on sched, which the caller drives and may share with other
// systems and with the memory backend. The configured geometry
// (Channels, DevicesPerChannel) still defines the physical address
// space, so the fabric and the system agree on capacity.
//
// NewExternal validates cfg in full; the external-memory rules are
// its caller's. Scheduled and bank-aware prefetching read controller
// idle and row state the backend owns, and the hardening monitors
// inspect local controllers, so cfg must leave them off (the cluster
// turns them off for every member). The controller settings
// ValidateExternalController names must be unset too; the cluster's
// Config.Validate rejects them, naming the member.
func NewExternal(cfg Config, gen trace.Generator, mem ExternalMemory, sched *sim.Scheduler) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newSystem(cfg, gen, &Memory{}, mem, sched)
}

// newSystem wires a system for the validated cfg around mem, the
// memory its hardening and prefetch hooks inspect, sending every
// request out through port.
func newSystem(cfg Config, gen trace.Generator, mem *Memory, port ExternalMemory, sched *sim.Scheduler) (*System, error) {
	l1, err := cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1Size, Assoc: cfg.L1Assoc, BlockBytes: cfg.L1Block})
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2Size, Assoc: cfg.L2Assoc, BlockBytes: cfg.L2Block})
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:      cfg,
		clock:    sim.NewClock(cfg.ClockHz),
		sched:    sched,
		l1:       l1,
		l2:       l2,
		fills:    newFillIndex(cfg.L2Block, cfg.MSHRs),
		capacity: cfg.geometry().Capacity(),
		mem:      mem,
		port:     port,
		pfBuf:    make([][]uint64, len(mem.ctrls)),
	}
	s.rowOpenFn = mem.rowOpen
	s.recycleWB = func(r *memctrl.Request) { s.freeWBs = append(s.freeWBs, r) }

	if cfg.Prefetch.Enabled {
		s.pf, err = policy.NewPrefetcher(cfg.Prefetch.Scheme, prefetchParams(cfg))
		if err != nil {
			return nil, err
		}
		if cfg.Prefetch.Scheduled {
			for g, c := range mem.ctrls {
				c.SetPrefetchSource(&prefetchSource{sys: s, group: g})
			}
		}
		// First demand reference of a prefetched block counts as a
		// prefetch success for the accuracy throttle.
		s.l2.PrefetchUsedHook = func() { s.pf.RecordSettled(true) }

		if n := cfg.Prefetch.BufferBlocks; n > 0 {
			s.pfbuffer, err = cache.New(cache.Config{
				Name:       "pfbuffer",
				SizeBytes:  int64(n * cfg.L2Block),
				Assoc:      n, // fully associative
				BlockBytes: cfg.L2Block,
			})
			if err != nil {
				return nil, err
			}
		}
	}

	s.core, err = cpu.New(s.sched, (*hierarchy)(s), gen, cpu.Config{
		Width:        cfg.Width,
		SustainedIPC: cfg.SustainedIPC,
		ROBSize:      cfg.ROBSize,
		StoreBuffer:  cfg.StoreBuffer,
		Clock:        s.clock,
		MaxInstrs:    cfg.WarmupInstrs + cfg.MaxInstrs,
	})
	if err != nil {
		return nil, err
	}
	if cfg.WarmupInstrs > 0 {
		s.core.Milestone = cfg.WarmupInstrs
		s.core.OnMilestone = s.snapshotBaseline
	}
	s.armObs()
	s.armHarden()
	return s, nil
}

// prefetchParams maps the system config onto the registry's factory
// knobs; every scheme reads the subset that applies to it.
func prefetchParams(cfg Config) policy.PrefetchParams {
	return policy.PrefetchParams{
		BlockBytes:       cfg.L2Block,
		Lookahead:        cfg.Prefetch.Lookahead,
		TableSize:        cfg.Prefetch.TableSize,
		RegionBytes:      cfg.Prefetch.RegionBytes,
		QueueDepth:       cfg.Prefetch.QueueDepth,
		Policy:           cfg.Prefetch.Policy,
		BankAware:        cfg.Prefetch.BankAware,
		ThrottleAccuracy: cfg.Prefetch.ThrottleAccuracy,
		ThrottleWindow:   cfg.Prefetch.ThrottleWindow,
	}
}

// snapshotBaseline records all counters at the warmup boundary so the
// result reports steady-state behaviour only.
func (s *System) snapshotBaseline() {
	b := &s.baseline
	b.taken = true
	b.at = s.sched.Now()
	b.retired = s.core.Stats().Retired
	b.l1 = s.l1.Stats()
	b.l2 = s.l2.Stats()
	if s.pfbuffer != nil {
		b.buffer = s.pfbuffer.Stats()
	}
	b.chn, b.ctrl = s.mem.Stats()
	if s.pf != nil {
		b.pf = s.pf.Stats()
	}
	b.lateMerges = s.lateMerges
	b.swPrefetches = s.swPrefetches
	b.prefetchSkipped = s.prefetchSkipped
	b.obsValues = s.obs.Registry.Values()
	s.obs.Timeline.ForceSample(s.sched.Now())
}

// Run executes the workload to completion and returns the collected
// results. Hardening failures surface as typed errors: a watchdog
// abort as *harden.WatchdogError, an invariant violation as
// *harden.InvariantError, and an internal-bug panic escaping the event
// loop (e.g. a duplicate MSHR fill) as *harden.CorruptionError with the
// same diagnostic dump attached.
func (s *System) Run() (Result, error) { return s.RunContext(context.Background()) }

// ctxCheckEvents is how many events RunContext lets fire between
// cancellation polls: coarse enough to keep the channel poll off the
// event loop's critical path, fine enough that a canceled or timed-out
// run stops within a sliver of wall time.
const ctxCheckEvents = 4096

// RunContext is Run under a context: cancellation and deadlines are
// checked at event-loop granularity, sharing the abort path that the
// hardening watchdog uses, so per-run timeouts, batch SIGINT, and
// watchdog aborts all stop a run the same way. The returned error wraps
// context.Cause(ctx), so callers can classify it with errors.Is
// (context.Canceled, context.DeadlineExceeded) or recover a custom
// cancel cause.
func (s *System) RunContext(ctx context.Context) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = Result{}, s.recoverCorruption(p)
		}
	}()
	// cond is checked between Steps, not between the core cycles one
	// Step runs inline: fatal is set only by the hardening monitors'
	// tick events, which Advance never runs ahead of, and Done ends
	// the core's own loop.
	cond := func() bool { return s.fatal == nil && !s.core.Done() }
	canceled := false
	done := ctx.Done()
	tl := s.obs.Timeline
	if done == nil && tl == nil && s.OnProgress == nil {
		s.sched.RunWhile(cond)
	} else {
		s.sched.RunWhileSampled(cond, ctxCheckEvents, func() bool {
			tl.MaybeSample(s.sched.Now())
			if s.OnProgress != nil {
				s.OnProgress(s.core.Stats().Retired, s.sched.Now())
			}
			if done != nil {
				select {
				case <-done:
					canceled = true
					return false
				default:
				}
			}
			return true
		})
	}
	if s.fatal != nil {
		return Result{}, s.fatal
	}
	if canceled {
		return Result{}, fmt.Errorf("core: run aborted at %v after %d events: %w",
			s.sched.Now(), s.sched.EventsFired(), context.Cause(ctx))
	}
	if !s.core.Done() {
		return Result{}, fmt.Errorf("core: simulation deadlocked at %v with %d events fired",
			s.sched.Now(), s.sched.EventsFired())
	}
	tl.ForceSample(s.sched.Now())
	return s.result(), nil
}

// Done reports whether the core retired its instruction budget.
func (s *System) Done() bool { return s.core.Done() }

// Snapshot collects the run's Result for a system whose scheduler its
// caller ran (a cluster's shared one), rather than Run. It errors if the core has
// not finished or a hardening failure fired.
func (s *System) Snapshot() (Result, error) {
	if s.fatal != nil {
		return Result{}, s.fatal
	}
	if !s.core.Done() {
		return Result{}, fmt.Errorf("core: snapshot before completion at %v with %d events fired",
			s.sched.Now(), s.sched.EventsFired())
	}
	s.obs.Timeline.ForceSample(s.sched.Now())
	return s.result(), nil
}

// hierarchy adapts the System into the core's Memory interface.
type hierarchy System

// Access implements cpu.Memory.
func (h *hierarchy) Access(addr uint64, kind trace.Kind, complete func(sim.Time)) cpu.Reply {
	s := (*System)(h)
	if addr >= s.capacity {
		addr %= s.capacity // in-range addresses skip the division
	}
	now := s.sched.Now()

	if kind == trace.SWPrefetch {
		return s.softwarePrefetch(addr)
	}

	if s.cfg.PerfectMem {
		return cpu.Reply{Accepted: true, Done: true, At: now + s.clock.Cycles(int64(s.cfg.L1HitCycles))}
	}

	// With every MSHR busy, a miss that would need one is refused before
	// anything is counted, so each access counts once: on the try that
	// is accepted. PerfectL2 never holds an MSHR, so it never refuses.
	if s.held >= s.cfg.MSHRs && !s.onChipOrInFlight(addr) {
		return cpu.Reply{} // rejected; the core retries after Unpark
	}

	write := kind == trace.Store
	if s.l1.Access(addr, write) {
		return cpu.Reply{Accepted: true, Done: true, At: now + s.clock.Cycles(int64(s.cfg.L1HitCycles))}
	}

	// L1 miss; the L2 lookup costs its access latency.
	l2At := now + s.clock.Cycles(int64(s.cfg.L2HitCycles))
	if s.cfg.PerfectL2 {
		s.fillL1(addr, write)
		return cpu.Reply{Accepted: true, Done: true, At: l2At}
	}
	if s.l2.Access(addr, write) {
		s.fillL1(addr, write)
		return cpu.Reply{Accepted: true, Done: true, At: l2At}
	}

	// L2 demand miss.
	block := s.l2.BlockAddr(addr)

	// Probe the separate prefetch buffer (when configured): a hit
	// promotes the block into the L2 and costs only the lookup.
	if s.pfbuffer != nil && s.pfbuffer.Access(block, false) {
		s.pfbuffer.Invalidate(block)
		s.installL2(block, write, false)
		s.fillL1(addr, write)
		if s.pf != nil {
			s.pf.RecordSettled(true)
		}
		return cpu.Reply{Accepted: true, Done: true, At: l2At + s.clock.Cycles(2)}
	}

	// Merge into the block's fill in flight; a hardware prefetch is the
	// "late prefetch" case.
	w := waiter{s: s, addr: addr, write: write, complete: complete}
	if fill := s.fills.find(block); fill != nil {
		if fill.kind == prefetchReq {
			fill.demand = true
			s.tr.Instant(obs.EvLateMerge, 0, block, 0)
			s.lateMerges++
			s.notifyPrefetcher(addr)
		}
		fill.wait(w)
		return cpu.Reply{Accepted: true}
	}

	r := s.newReq(demandReq, block, block, write)
	s.track(r)
	r.wait(w)
	s.notifyPrefetcher(addr)
	s.port.Submit(&r.Request)
	return cpu.Reply{Accepted: true}
}

// onChipOrInFlight reports, without counting or disturbing recency,
// whether the block holding addr is in the L1, the L2 or the prefetch
// buffer, or has a fill in flight: an access to it needs no new MSHR.
func (s *System) onChipOrInFlight(addr uint64) bool {
	block := s.l2.BlockAddr(addr)
	return s.l1.Contains(addr) || s.l2.Contains(block) ||
		(s.pfbuffer != nil && s.pfbuffer.Contains(block)) ||
		s.fills.find(block) != nil
}

// fillL1 installs the block containing addr into the L1, absorbing the
// victim writeback into the L2.
func (s *System) fillL1(addr uint64, write bool) {
	v := s.l1.Insert(addr, cache.MRU, write, false)
	if v.Valid && v.Dirty && !s.cfg.PerfectMem && !s.cfg.PerfectL2 {
		if !s.l2.MarkDirty(v.Addr) {
			// The line left the L2 already (non-inclusive corner):
			// write it back to memory directly.
			s.port.Submit(s.newWriteback(v.Addr, s.cfg.L1Block))
		}
	}
}

// installL2 places a returned block into the L2 and schedules the
// victim's writeback. Evicted unreferenced prefetches feed the
// accuracy throttle as failures. Prefetched blocks divert to the
// separate buffer when one is configured.
func (s *System) installL2(block uint64, dirty, prefetched bool) {
	if prefetched && s.pfbuffer != nil {
		v := s.pfbuffer.Insert(block, cache.MRU, false, true)
		if v.Valid && s.pf != nil {
			// Pushed out of the buffer unreferenced: a wasted prefetch.
			s.pf.RecordSettled(false)
		}
		return
	}
	pos := cache.MRU
	if prefetched {
		pos = s.cfg.Prefetch.Insert
	}
	v := s.l2.Insert(block, pos, dirty, prefetched)
	if !v.Valid {
		return
	}
	if v.Prefetched && s.pf != nil {
		s.pf.RecordSettled(false)
	}
	if v.Dirty {
		s.port.Submit(s.newWriteback(v.Addr, s.cfg.L2Block))
	}
}

// notifyPrefetcher reports a demand miss to the prefetch engine.
//
// The paper's region entries mark blocks already in the cache at
// creation; we defer that residency check to issue time (see
// makePrefetchRequest), which is behaviourally equivalent — resident
// blocks are never transferred — and avoids scanning every block of
// every region on the demand-miss path.
func (s *System) notifyPrefetcher(addr uint64) {
	if s.pf == nil {
		return
	}
	s.pf.OnDemandMiss(addr, nil)
	if s.cfg.Prefetch.Scheduled {
		for _, c := range s.mem.ctrls {
			c.Kick()
		}
	} else {
		// Unscheduled prefetching: every region prefetch issues
		// immediately as an ordinary request (Table 4, "FIFO
		// prefetch").
		for {
			block, ok := s.pf.Next(nil)
			if !ok {
				break
			}
			if r, live := s.makePrefetchRequest(block); live {
				s.port.Submit(r)
			}
		}
	}
}

// makePrefetchRequest builds the transfer for one prefetch block on
// its global address, registering it in flight. ok is false when the
// block is resident or being fetched.
func (s *System) makePrefetchRequest(block uint64) (*memctrl.Request, bool) {
	// Engines may generate out-of-range candidates (e.g. a stream
	// running past the workload footprint); wrap like every other
	// physical address.
	block = s.l2.BlockAddr(block % s.capacity)
	if s.l2.Contains(block) {
		s.dropPrefetch(block, obs.DropResident)
		return nil, false
	}
	if s.pfbuffer != nil && s.pfbuffer.Contains(block) {
		s.dropPrefetch(block, obs.DropBuffered)
		return nil, false
	}
	if fill := s.fills.find(block); fill != nil {
		reason := obs.DropDemandPending
		if fill.kind == prefetchReq {
			reason = obs.DropInFlight
		}
		s.dropPrefetch(block, reason)
		return nil, false
	}
	r := s.newReq(prefetchReq, block, block, false)
	s.track(r)
	return &r.Request, true
}

// dropPrefetch records a prefetch candidate discarded before issue.
func (s *System) dropPrefetch(block uint64, reason obs.DropReason) {
	s.tr.Instant(obs.EvPrefetchDrop, 0, block, uint64(reason))
	s.prefetchSkipped++
}

// softwarePrefetch handles a software prefetch instruction: a
// non-binding fill request into the L2.
func (s *System) softwarePrefetch(addr uint64) cpu.Reply {
	done := cpu.Reply{Accepted: true, Done: true, At: s.sched.Now() + s.clock.Period()}
	if s.cfg.PerfectMem || s.cfg.PerfectL2 || !s.cfg.SoftwarePrefetch {
		return done
	}
	addr %= s.capacity
	if s.onChipOrInFlight(addr) {
		return done
	}
	if s.held >= s.cfg.MSHRs {
		return cpu.Reply{} // dropped by the core
	}
	s.swPrefetches++
	block := s.l2.BlockAddr(addr)
	r := s.newReq(swPrefetchReq, block, block, false)
	s.track(r)
	s.port.Submit(&r.Request)
	return done
}

// prefetchSource adapts the prefetch engine to one controller's pull
// interface. Under independent interleaving, candidates belonging to
// other groups are buffered for their own controllers.
type prefetchSource struct {
	sys   *System
	group int
}

// maxRoutePull bounds how many foreign-group candidates one pull may
// shuffle before giving up the idle slot.
const maxRoutePull = 16

// NextPrefetch implements memctrl.PrefetchSource.
func (p *prefetchSource) NextPrefetch(now sim.Time) (*memctrl.Request, bool) {
	s := p.sys

	// Buffered candidates routed here earlier take priority, oldest
	// first. Popping shifts the rest down in place, so the buffer keeps
	// its capacity for the next route.
	for buf := s.pfBuf[p.group]; len(buf) > 0; buf = s.pfBuf[p.group] {
		block := buf[0]
		s.pfBuf[p.group] = buf[:copy(buf, buf[1:])]
		if r, live := p.pull(block); live {
			return r, true
		}
	}

	for i := 0; i < maxRoutePull; i++ {
		block, ok := s.pf.Next(s.rowOpenFn)
		if !ok {
			return nil, false
		}
		if g, _ := s.mem.route(0, block); g != p.group {
			// Route to the owning controller and keep looking.
			s.pfBuf[g] = append(s.pfBuf[g], block)
			s.mem.ctrls[g].Kick()
			continue
		}
		if r, live := p.pull(block); live {
			return r, true
		}
	}
	return nil, false
}

// pull builds the prefetch of block for p's controller, its address
// translated into the group's space: the controller queues it without
// a Submit.
func (p *prefetchSource) pull(block uint64) (*memctrl.Request, bool) {
	r, live := p.sys.makePrefetchRequest(block)
	if live {
		_, r.Addr = p.sys.mem.route(0, r.Addr)
	}
	return r, live
}
