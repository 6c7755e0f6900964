package cluster

import (
	"context"
	"fmt"

	"memsim/internal/core"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// ctxCheckEvents is how many events fire between context-cancellation
// polls, the stride core.RunContext polls at.
const ctxCheckEvents = 4096

// run carries the live state of one cluster execution. Every member
// system and the shared memory schedule on its one scheduler; a link
// crossing is an event one link latency after its send.
type run struct {
	cfg     Config
	sched   *sim.Scheduler
	systems []*systemShard
	mem     *core.Memory
	// fabricObs holds the shared memory's trace lanes, exported as the
	// "fabric" process next to the members'; nil unless tracing.
	fabricObs *obs.Observer

	// free pools the transfers not in flight; built counts every
	// transfer ever made. The three link handlers are bound once.
	free                              []*transfer
	built                             int
	arriveCB, firstDataCB, completeCB sim.Callback

	messages uint64
	hash     uint64  // digest of the fire log (hashMessage)
	landed   message // the latest crossing's fire-log record

	// tap, when set, sees every crossing's record as it lands. Tests
	// audit the protocol through it.
	tap func(m *message)
}

// Run executes the cluster to completion and returns the merged
// result.
func Run(ctx context.Context, cfg Config) (Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := r.loop(ctx); err != nil {
		return Result{}, err
	}
	return r.collect()
}

// newRun validates cfg and builds every member system and the shared
// memory on one scheduler, ready to run.
func newRun(cfg Config) (*run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	fabric, err := cfg.fabric()
	if err != nil {
		return nil, err
	}

	r := &run{cfg: cfg, sched: sim.NewScheduler(), hash: digestSeed}
	r.arriveCB = func(at sim.Time, arg any) { r.arrive(at, arg.(*transfer)) }
	r.firstDataCB = func(at sim.Time, arg any) { r.firstData(at, arg.(*transfer)) }
	r.completeCB = func(at sim.Time, arg any) { r.complete(at, arg.(*transfer)) }
	for i, spec := range cfg.Systems {
		prof, err := workload.ByName(spec.Bench)
		if err != nil {
			return nil, err
		}
		sysCfg := cfg.systemConfig(i, fabric)
		gen, err := prof.Generator(spec.Seed, sysCfg.SoftwarePrefetch)
		if err != nil {
			return nil, fmt.Errorf("cluster: system %d (%s): %w", i, spec.Bench, err)
		}
		sh := &systemShard{r: r, idx: i, label: spec.Label(i)}
		if sh.sys, err = core.NewExternal(sysCfg, gen, sh, r.sched); err != nil {
			return nil, fmt.Errorf("cluster: system %d (%s): %w", i, spec.Bench, err)
		}
		r.systems = append(r.systems, sh)
	}
	mem, err := core.NewMemory(r.sched, fabric, len(cfg.Systems))
	if err != nil {
		return nil, err
	}
	r.mem = mem
	if cfg.Obs.Trace {
		r.fabricObs = obs.New(obs.Config{Trace: true, TraceEvents: cfg.Obs.TraceEvents}, r.sched.Now)
		mem.Observe(r.fabricObs)
	}
	return r, nil
}

// newTransfer takes a pooled transfer, or builds one with its
// controller callbacks bound: each sends the transfer back across the
// link. A warm cluster crosses the link without allocating.
func (r *run) newTransfer() *transfer {
	if n := len(r.free); n > 0 {
		t := r.free[n-1]
		r.free = r.free[:n-1]
		return t
	}
	r.built++
	t := &transfer{}
	t.onFirst = func(sim.Time) { r.sched.ScheduleCall(r.cfg.LinkLatency, r.firstDataCB, t) }
	t.onComplete = func(sim.Time) { r.sched.ScheduleCall(r.cfg.LinkLatency, r.completeCB, t) }
	return t
}

// land folds the crossing landing at at into the fire log and shows it
// to the tap. Crossings land in send order, since every one crosses
// the same latency and same-instant events fire in scheduling order.
func (r *run) land(at sim.Time, m message) {
	m.Sent = at - r.cfg.LinkLatency
	r.landed = m
	r.messages++
	r.hashMessage(&r.landed)
	if r.tap != nil {
		r.tap(&r.landed)
	}
}

// arrive lands a member's request at the shared memory: the
// transfer's own request carries it, with the callbacks that send it
// back across the link.
func (r *run) arrive(at sim.Time, t *transfer) {
	req := t.req
	r.land(at, message{
		ID:        t.id,
		Addr:      req.Addr,
		Size:      uint32(req.Size), // one L2 block; core.Config caps a cache at 1 GB
		Sys:       t.Sys,
		Kind:      msgRequest,
		Class:     uint8(req.Class),
		Write:     req.Write,
		NeedFirst: req.OnFirstData != nil,
	})
	t.Request = memctrl.Request{Sys: t.Sys, Addr: req.Addr, Size: req.Size, Class: req.Class, Write: req.Write, OnComplete: t.onComplete}
	if req.OnFirstData != nil {
		t.OnFirstData = t.onFirst
	}
	r.mem.Submit(&t.Request)
}

// firstData lands the critical word back at the requester.
func (r *run) firstData(at sim.Time, t *transfer) {
	r.land(at, message{ID: t.id, Sys: t.Sys, Kind: msgFirstData})
	t.req.OnFirstData(at)
}

// complete lands the full block back at the requester and returns the
// transfer to the pool once the member's callbacks, which may submit,
// are done.
func (r *run) complete(at sim.Time, t *transfer) {
	r.land(at, message{ID: t.id, Sys: t.Sys, Kind: msgComplete})
	req := t.req
	if req == nil {
		panic(fmt.Sprintf("cluster: %s: second completion of request %d", r.systems[t.Sys].label, t.id))
	}
	t.req = nil
	if req.OnComplete != nil {
		req.OnComplete(at)
	}
	if req.OnRelease != nil {
		req.OnRelease(req)
	}
	r.free = append(r.free, t)
}

// Fire-log digest constants: the seed, the serial step's multiplier and
// one odd multiplier per word, so no two words enter alike. The
// multipliers are four of the 64-bit xxHash primes and SplitMix64's
// two.
const (
	digestSeed = 0xcbf29ce484222325
	digestMul  = 0xbf58476d1ce4e5b9
	digestK0   = 0x9e3779b185ebca87
	digestK1   = 0xc2b2ae3d27d4eb4f
	digestK2   = 0x85ebca77c2b2ae63
	digestK3   = 0x27d4eb2f165667c5
	digestK4   = 0x94d049bb133111eb
)

// hashMessage folds m into the fire-log digest. m's fields pack into
// five fixed words, so the digest has no dependence on struct layout.
// Each word, times its own odd constant, combines into one, which
// enters the running value through one multiply and one xorshift. Each
// of those steps is a bijection of every word and of the running
// value, so a change to any one word of any one message changes the
// digest, and only the serial step waits on the message before.
func (r *run) hashMessage(m *message) {
	w4 := uint64(m.Size)<<8 | uint64(m.Class)<<2
	if m.Write {
		w4 |= 1
	}
	if m.NeedFirst {
		w4 |= 2
	}
	x := uint64(m.Sent)*digestK0 ^ (uint64(m.Kind)<<16|uint64(m.Sys))*digestK1 ^
		m.ID*digestK2 ^ m.Addr*digestK3 ^ w4*digestK4
	h := (r.hash ^ x) * digestMul
	r.hash = h ^ h>>32
}

// loop runs the scheduler until its queue drains, polling ctx every
// ctxCheckEvents fired events. A drained queue is the end of the run:
// nothing can fire again, so every core must have retired its budget
// and every request its completion, or the cluster deadlocked. A panic
// in any handler comes back as an error.
func (r *run) loop(ctx context.Context) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster: panic at %v: %v", r.sched.Now(), p)
		}
	}()
	done, canceled := ctx.Done(), false
	r.sched.RunWhileSampled(func() bool { return true }, ctxCheckEvents, func() bool {
		select {
		case <-done:
			canceled = true
			return false
		default:
			return true
		}
	})
	switch {
	case canceled:
		return fmt.Errorf("cluster: run aborted at %v after %d events: %w",
			r.sched.Now(), r.sched.EventsFired(), context.Cause(ctx))
	case !r.finished():
		return fmt.Errorf("cluster: deadlock at %v after %d events: no events pending, work not done",
			r.sched.Now(), r.sched.EventsFired())
	}
	return nil
}

// finished reports whether every core retired its budget, every
// transfer is back in the pool, and no controller holds work.
func (r *run) finished() bool {
	for _, sh := range r.systems {
		if !sh.sys.Done() {
			return false
		}
	}
	return len(r.free) == r.built && !r.mem.Busy()
}
