package core

import (
	"context"
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/cache"
	"memsim/internal/channel"
	"memsim/internal/cpu"
	"memsim/internal/dram"
	"memsim/internal/harden/inject"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
	"memsim/internal/sim"
	"memsim/internal/trace"
)

// System is one fully wired simulated machine. Build with New, run
// once with Run.
//
// Under the paper's "ganged" organization the physical channels form a
// single logical channel with one controller (index 0). Under the
// "independent" organization each physical channel has its own
// controller and whole cache blocks stripe across channels, so
// concurrent misses to different channels proceed in parallel — the
// "complex interleaving of the multiple channels" the paper leaves as
// future work (Section 6).
type System struct {
	cfg   Config
	clock sim.Clock
	sched *sim.Scheduler

	core  *cpu.CPU
	l1    *cache.Cache
	l2    *cache.Cache
	ctrls []*memctrl.Controller
	chns  []*channel.Channel
	maprs []addrmap.Mapper
	// timingPols holds each group's bank-timing policy instance (one
	// per channel, empty under the flat scheme); armObs sums their
	// fast/slow counters into the gated activate metrics.
	timingPols []dram.TimingPolicy
	pf         prefetch.Prefetcher // nil when disabled
	// pfbuffer receives prefetch fills when the separate-buffer
	// alternative is configured; nil otherwise.
	pfbuffer *cache.Cache

	// pfBuf holds prefetch candidates routed to a controller that was
	// not the one asking (independent interleaving only).
	pfBuf [][]uint64
	// rowOpenFn is rowOpenGlobal bound once, so bank-aware prefetch
	// pulls allocate no method value.
	rowOpenFn func(block uint64) bool

	mshrs    *cache.MSHRTable[waiter]
	inflight map[uint64]*missReq // prefetch fills in flight, by L2 block

	// freeReqs and freeWBs are the free lists of pooled fill requests
	// (see missReq) and writebacks; both grow lazily to the peak number
	// in flight. recycleWB, bound once, returns a writeback to its list.
	freeReqs  *missReq
	freeWBs   []*memctrl.Request
	recycleWB func(*memctrl.Request)
	// onNewRequest, when set (tests only), observes every request the
	// hierarchy builds, just before it leaves for a controller.
	onNewRequest func(*memctrl.Request)

	capacity uint64

	// extMem, when non-nil, replaces the local memory controllers: all
	// requests route to it with fabric-global addresses and no local
	// channel state exists (ctrls, chns and maprs stay empty). Set by
	// NewExternal; internal/cluster uses it to share channels between
	// systems.
	extMem ExternalMemory

	// OnProgress, when non-nil, is invoked at the event loop's coarse
	// sampling stride with the retired-instruction count and current
	// simulated time. It is a read-only observation hook (the service
	// layer surfaces it as per-job progress); it must not mutate
	// simulation state.
	OnProgress func(retired uint64, now sim.Time)

	// Hardening state (see harden.go): the armed fault injector (nil
	// when injection is off), the first fatal hardening error, and the
	// completion counter feeding the watchdog's progress snapshot.
	inj         *inject.Injector
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
		chn             []channel.Stats
		ctrl            []memctrl.Stats
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
	// mshr is a demand miss's table entry: its slot holds still until
	// the fill completes.
	mshr *cache.MSHR[waiter]
	// A prefetch fill's merge state: whether a demand miss merged into
	// it, and the merged requests' waiters.
	demand  bool
	waiters []waiter

	firstData, complete func(sim.Time)
	release             func(*memctrl.Request)
	next                *missReq // free-list link
	live                bool     // taken from the free list, not yet released
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

// Fire implements cache.Waiter.
func (w waiter) Fire(at sim.Time) {
	w.s.fillL1(w.addr, w.write)
	if w.complete != nil {
		w.complete(at)
	}
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
	if s.onNewRequest != nil {
		s.onNewRequest(&r.Request)
	}
	return r
}

// recycle returns a released fill request to the free list.
func (r *missReq) recycle(*memctrl.Request) {
	if !r.live {
		panic(fmt.Sprintf("core: request for block %#x released twice", r.block))
	}
	r.live = false
	r.mshr, r.demand = nil, false
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
	if s.onNewRequest != nil {
		s.onNewRequest(r)
	}
	return r
}

// onFirstData releases the loads waiting on a demand miss once the
// critical word arrives; later merges complete at full-line install.
func (r *missReq) onFirstData(at sim.Time) { r.s.mshrs.Fire(r.mshr, at) }

// onComplete is the full-line arrival of a demand, prefetch or
// software-prefetch fill.
func (r *missReq) onComplete(at sim.Time) {
	s := r.s
	switch r.kind {
	case demandReq:
		if s.inj.Tick(inject.DropCompletion) {
			return // the fill is lost; the MSHR entry leaks
		}
		s.deliverDemand(r.block, r.write, at)
		s.completions++
		if s.inj.Tick(inject.DuplicateFill) {
			// The second Complete panics on the unknown block; Run
			// recovers it into a CorruptionError.
			s.deliverDemand(r.block, r.write, at)
		}
	case prefetchReq:
		s.completions++
		delete(s.inflight, r.block)
		s.installL2(r.block, false, !r.demand)
		if r.demand && s.pf != nil {
			// A late prefetch the demand stream caught up with: count
			// it as used.
			s.pf.RecordSettled(true)
		}
		for _, w := range r.waiters {
			w.Fire(at)
		}
		s.core.Wake()
	case swPrefetchReq:
		s.completions++
		s.installL2(r.block, false, true)
		s.mshrs.Complete(r.block, at)
		s.core.Wake()
	}
}

// deliverDemand installs a demand fill and retires its MSHR entry.
func (s *System) deliverDemand(block uint64, write bool, at sim.Time) {
	s.installL2(block, write, false)
	s.mshrs.Complete(block, at)
	s.core.Wake()
}

// ExternalMemory is the memory-backend seam: a fabric that resolves
// block transfers on behalf of the system. Submit receives requests
// with fabric-global physical addresses (no group-local translation);
// the backend must eventually fire OnFirstData/OnComplete on the
// system's own scheduler.
type ExternalMemory interface {
	Submit(r *memctrl.Request)
}

// New builds a system over the given instruction stream.
func New(cfg Config, gen trace.Generator) (*System, error) {
	return newSystem(cfg, gen, nil)
}

// NewExternal builds a system whose memory requests route to mem
// instead of locally built controllers and channels. The configured
// geometry (Channels, DevicesPerChannel) still defines the physical
// address space, so the fabric and the system agree on capacity.
//
// External-memory mode restricts the configuration to what a remote
// fabric can honor: scheduled and bank-aware prefetching need
// synchronous access to controller idle state and DRAM row state,
// which would couple shards, and the hardening monitors (watchdog,
// paranoid checks) inspect local controllers; all must be off.
func NewExternal(cfg Config, gen trace.Generator, mem ExternalMemory) (*System, error) {
	if mem == nil {
		return nil, fmt.Errorf("core: NewExternal requires a memory backend")
	}
	if cfg.Prefetch.Enabled && (cfg.Prefetch.Scheduled || cfg.Prefetch.BankAware) {
		return nil, fmt.Errorf("core: external memory cannot serve scheduled or bank-aware prefetching (channel idle/row state is remote)")
	}
	if cfg.Harden.WatchdogCycles > 0 || cfg.Harden.Paranoid || cfg.Harden.Inject.Enabled() {
		return nil, fmt.Errorf("core: hardening monitors inspect local controllers; disable Harden in external-memory mode")
	}
	return newSystem(cfg, gen, mem)
}

func newSystem(cfg Config, gen trace.Generator, mem ExternalMemory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Ganged: one controller over an n-wide logical channel.
	// Independent: n controllers over 1-wide channels.
	groups := 1
	groupGeom := addrmap.Geometry{Channels: cfg.Channels, DevicesPerChannel: cfg.DevicesPerChannel}
	if cfg.Interleaving == "independent" {
		groups = cfg.Channels
		groupGeom = addrmap.Geometry{Channels: 1, DevicesPerChannel: cfg.DevicesPerChannel}
	}

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
		sched:    sim.NewScheduler(),
		l1:       l1,
		l2:       l2,
		mshrs:    cache.NewMSHRTable[waiter](cfg.MSHRs),
		inflight: make(map[uint64]*missReq),
		capacity: groupGeom.Capacity() * uint64(groups),
		pfBuf:    make([][]uint64, groups),
		extMem:   mem,
	}
	s.rowOpenFn = s.rowOpenGlobal
	s.recycleWB = func(r *memctrl.Request) { s.freeWBs = append(s.freeWBs, r) }
	if mem != nil {
		// The fabric owns all channel state; build nothing local.
		groups = 0
	}

	chCfg := channel.Config{Geometry: groupGeom, Timing: cfg.Timing, ClosedPage: cfg.ClosedPage}
	if cfg.Refresh {
		// One refresh per ~2us retires all 16K rows of a device within
		// a 32ms retention period; each costs roughly a row cycle.
		chCfg.RefreshInterval = 2 * sim.Microsecond
		chCfg.RefreshDuration = 70 * sim.Nanosecond
	}
	schedName, schedWindow := cfg.resolvedSched()
	for g := 0; g < groups; g++ {
		mapr, err := policy.NewMapping(cfg.Mapping, groupGeom)
		if err != nil {
			return nil, err
		}
		// Each group gets its own timing-policy instance: schemes with
		// internal state (the row-reuse table) must not share across
		// channels.
		gcfg := chCfg
		gcfg.TimingPol, err = policy.NewTiming(cfg.BankTiming, policy.TimingParams{})
		if err != nil {
			return nil, err
		}
		if gcfg.TimingPol != nil {
			s.timingPols = append(s.timingPols, gcfg.TimingPol)
		}
		chn, err := channel.New(gcfg)
		if err != nil {
			return nil, err
		}
		ctrl := memctrl.New(s.sched, chn, mapr)
		pol, err := policy.NewSched(schedName, policy.SchedParams{Window: schedWindow})
		if err != nil {
			return nil, err
		}
		ctrl.SetPolicy(pol)
		s.maprs = append(s.maprs, mapr)
		s.chns = append(s.chns, chn)
		s.ctrls = append(s.ctrls, ctrl)
	}

	if cfg.Prefetch.Enabled {
		scheme := cfg.Prefetch.Scheme
		if scheme == "" {
			scheme = "region"
		}
		s.pf, err = policy.NewPrefetcher(scheme, prefetchParams(cfg))
		if err != nil {
			return nil, err
		}
		if cfg.Prefetch.Scheduled {
			for g := range s.ctrls {
				s.ctrls[g].SetPrefetchSource(&prefetchSource{sys: s, group: g})
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

// group routes a physical address to its controller: always 0 when
// ganged, the block-stripe index when independent.
func (s *System) group(addr uint64) int {
	if len(s.ctrls) <= 1 {
		return 0
	}
	return int(addr / uint64(s.cfg.L2Block) % uint64(len(s.ctrls)))
}

// localAddr compacts a global physical address into its channel
// group's private address space (identity when ganged or when the
// memory backend is external: the fabric does its own translation).
func (s *System) localAddr(addr uint64) uint64 {
	n := uint64(len(s.ctrls))
	if n <= 1 {
		return addr
	}
	bs := uint64(s.cfg.L2Block)
	return addr/bs/n*bs + addr%bs
}

// submit routes a request built on global addresses to its controller,
// translating the address into the group-local space. With an external
// backend the request leaves with its global address untouched.
func (s *System) submit(r *memctrl.Request) {
	if s.extMem != nil {
		s.extMem.Submit(r)
		return
	}
	g := s.group(r.Addr)
	r.Addr = s.localAddr(r.Addr)
	if s.inj != nil && r.Class == channel.Demand {
		s.injectOnSubmit(g, r)
	}
	s.ctrls[g].Submit(r)
}

// rowOpenGlobal reports whether the block's row is open in its group.
func (s *System) rowOpenGlobal(block uint64) bool {
	g := s.group(block)
	return s.chns[g].RowOpen(s.maprs[g].Map(s.localAddr(block)))
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
	b.chn = b.chn[:0]
	b.ctrl = b.ctrl[:0]
	for g := range s.ctrls {
		b.chn = append(b.chn, s.chns[g].Stats())
		b.ctrl = append(b.ctrl, s.ctrls[g].Stats())
	}
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

// Sched exposes the system's private scheduler so an external driver
// (internal/cluster) can advance it in bounded epochs and inject
// completion events onto it. Local callers should use Run/RunContext.
func (s *System) Sched() *sim.Scheduler { return s.sched }

// Done reports whether the core retired its instruction budget.
func (s *System) Done() bool { return s.core.Done() }

// Snapshot collects the run's Result for a system driven externally
// (epoch by epoch) rather than through Run. It errors if the core has
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
	addr %= s.capacity
	now := s.sched.Now()

	if kind == trace.SWPrefetch {
		return s.softwarePrefetch(addr)
	}

	if s.cfg.PerfectMem {
		return cpu.Reply{Accepted: true, Done: true, At: now + s.clock.Cycles(int64(s.cfg.L1HitCycles))}
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

	// Merge into an in-flight prefetch: the "late prefetch" case.
	w := waiter{s: s, addr: addr, write: write, complete: complete}
	if fill, ok := s.inflight[block]; ok {
		fill.demand = true
		s.tr.Instant(obs.EvLateMerge, 0, block, 0)
		s.lateMerges++
		s.notifyPrefetcher(addr)
		fill.waiters = append(fill.waiters, w)
		return cpu.Reply{Accepted: true}
	}

	// Merge into an outstanding demand miss.
	if m, ok := s.mshrs.Lookup(block); ok {
		m.Waiters = append(m.Waiters, w)
		return cpu.Reply{Accepted: true}
	}

	if s.mshrs.Full() {
		return cpu.Reply{} // rejected; the core retries after Wake
	}

	m := s.mshrs.Allocate(block, false)
	m.Waiters = append(m.Waiters, w)

	s.notifyPrefetcher(addr)

	r := s.newReq(demandReq, block, block, write)
	r.mshr = m
	s.submit(&r.Request)
	return cpu.Reply{Accepted: true}
}

// fillL1 installs the block containing addr into the L1, absorbing the
// victim writeback into the L2.
func (s *System) fillL1(addr uint64, write bool) {
	v := s.l1.Insert(addr, cache.MRU, write, false)
	if v.Valid && v.Dirty && !s.cfg.PerfectMem && !s.cfg.PerfectL2 {
		if !s.l2.MarkDirty(v.Addr) {
			// The line left the L2 already (non-inclusive corner):
			// write it back to memory directly.
			s.submit(s.newWriteback(v.Addr, s.cfg.L1Block))
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
		s.submit(s.newWriteback(v.Addr, s.cfg.L2Block))
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
		for _, c := range s.ctrls {
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
				if s.extMem != nil {
					s.extMem.Submit(r)
				} else {
					s.ctrls[s.group(block)].Submit(r)
				}
			}
		}
	}
}

// makePrefetchRequest builds the transfer for one prefetch block,
// registering it in flight; the request address is already translated
// to the owning group's local space. ok is false when the block is
// resident or being fetched.
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
	if _, busy := s.inflight[block]; busy {
		s.dropPrefetch(block, obs.DropInFlight)
		return nil, false
	}
	if _, busy := s.mshrs.Lookup(block); busy {
		s.dropPrefetch(block, obs.DropDemandPending)
		return nil, false
	}
	r := s.newReq(prefetchReq, s.localAddr(block), block, false)
	s.inflight[block] = r
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
	block := s.l2.BlockAddr(addr)
	if s.l1.Contains(addr) || s.l2.Contains(addr) {
		return done
	}
	if _, ok := s.inflight[block]; ok {
		return done
	}
	if _, ok := s.mshrs.Lookup(block); ok {
		return done
	}
	if s.mshrs.Full() {
		return cpu.Reply{} // dropped by the core
	}
	s.swPrefetches++
	s.mshrs.Allocate(block, true)
	s.submit(&s.newReq(swPrefetchReq, block, block, false).Request)
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

	// Buffered candidates routed here earlier take priority.
	for len(s.pfBuf[p.group]) > 0 {
		block := s.pfBuf[p.group][0]
		s.pfBuf[p.group] = s.pfBuf[p.group][1:]
		if r, live := s.makePrefetchRequest(block); live {
			return r, true
		}
	}

	for i := 0; i < maxRoutePull; i++ {
		block, ok := s.pf.Next(s.rowOpenFn)
		if !ok {
			return nil, false
		}
		g := s.group(block)
		if g != p.group {
			// Route to the owning controller and keep looking.
			s.pfBuf[g] = append(s.pfBuf[g], block)
			s.ctrls[g].Kick()
			continue
		}
		if r, live := s.makePrefetchRequest(block); live {
			return r, true
		}
	}
	return nil, false
}
