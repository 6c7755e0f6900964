package cluster

import (
	"context"
	"fmt"

	"memsim/internal/core"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// ctxCheckEpochs is how many epochs pass between context-cancellation
// polls at the barrier; epochs are tens of nanoseconds of simulated
// time, so even a coarse poll stops a run within microseconds of wall
// time.
const ctxCheckEpochs = 64

// run carries the live state of one cluster execution.
type run struct {
	cfg     Config
	systems []*systemShard
	mem     *memoryShard
	delta   sim.Time

	// scheds lists every shard's scheduler in canonical order
	// (systems by index, then the memory shard), and outs their
	// outboxes in the same order. ahead[i] is shard i's earliest
	// pending event: what its last RunUntil reported, lowered by every
	// delivery the barrier injected since.
	scheds []*sim.Scheduler
	outs   []*outbox
	ahead  []lookahead

	epochs   uint64
	messages uint64
	now      sim.Time // fabric clock: the last barrier's epoch end
	hash     uint64   // digest of the barrier fire log (hashMessage)

	// tap, when set, sees every message the barrier exchanges, in
	// canonical order. Tests audit the protocol through it.
	tap func(*message)
}

// lookahead is one shard's earliest pending event (ok=false: none).
type lookahead struct {
	at sim.Time
	ok bool
}

// lower records a delivery injected at t.
func (la *lookahead) lower(t sim.Time) {
	if !la.ok || t < la.at {
		la.at, la.ok = t, true
	}
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

// newRun validates cfg and builds every shard, ready for its first
// epoch.
func newRun(cfg Config) (*run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	r := &run{cfg: cfg, delta: cfg.LinkLatency, hash: digestSeed}
	for i, spec := range cfg.Systems {
		prof, err := workload.ByName(spec.Bench)
		if err != nil {
			return nil, err
		}
		sysCfg := cfg.systemConfig(i)
		gen, err := prof.Generator(spec.Seed, sysCfg.SoftwarePrefetch)
		if err != nil {
			return nil, fmt.Errorf("cluster: system %d (%s): %w", i, spec.Bench, err)
		}
		sh := newSystemShard(i, spec.Label(i), cfg.LinkLatency)
		sys, err := core.NewExternal(sysCfg, gen, sh)
		if err != nil {
			return nil, fmt.Errorf("cluster: system %d (%s): %w", i, spec.Bench, err)
		}
		sh.attach(sys)
		r.systems = append(r.systems, sh)
		r.scheds = append(r.scheds, sh.sched)
		r.outs = append(r.outs, &sh.outbox)
	}
	mem, err := newMemoryShard(len(cfg.Systems), cfg, len(cfg.Systems))
	if err != nil {
		return nil, err
	}
	r.mem = mem
	r.scheds = append(r.scheds, mem.sched)
	r.outs = append(r.outs, &mem.outbox)
	// Until the priming advance reports, any shard may hold an event
	// at time zero.
	r.ahead = make([]lookahead, len(r.scheds))
	for i := range r.ahead {
		r.ahead[i] = lookahead{ok: true}
	}
	return r, nil
}

// barrier merges every shard's outbox in canonical order, folds the
// batch into the fire-log digest, and injects each message into its
// destination scheduler, lowering that shard's lookahead. It returns
// the number of messages exchanged. Injection order is the canonical
// order, so destination-scheduler sequence numbers — and with them
// all same-instant tie-breaks — do not depend on which shards the
// epoch advanced.
//
// Each outbox is in canonical order already, so the merge takes the
// earliest head each time: the lowest delivery time, and among equal
// times the lowest source, which is the first found scanning outboxes
// in shard order.
func (r *run) barrier() int {
	n := 0
	for {
		var m *message
		var from *outbox
		for _, o := range r.outs {
			if o.next < len(o.msgs) {
				if h := &o.msgs[o.next]; m == nil || h.DeliverAt < m.DeliverAt {
					m, from = h, o
				}
			}
		}
		if m == nil {
			break
		}
		from.next++
		n++
		r.hashMessage(m)
		if r.tap != nil {
			r.tap(m)
		}
		if m.Kind == msgRequest {
			r.mem.inject(m)
			r.ahead[len(r.systems)].lower(m.DeliverAt)
		} else {
			r.systems[m.Sys].inject(m)
			r.ahead[m.Sys].lower(m.DeliverAt)
		}
	}
	if n > 0 {
		for _, o := range r.outs {
			o.flip()
		}
	}
	r.messages += uint64(n)
	return n
}

// Fire-log digest constants: the seed, the serial step's multiplier and
// one odd multiplier per word, so no two words enter alike. The
// multipliers are the five 64-bit xxHash primes and SplitMix64's two.
const (
	digestSeed = 0xcbf29ce484222325
	digestMul  = 0xbf58476d1ce4e5b9
	digestK0   = 0x9e3779b185ebca87
	digestK1   = 0xc2b2ae3d27d4eb4f
	digestK2   = 0x165667b19e3779f9
	digestK3   = 0x85ebca77c2b2ae63
	digestK4   = 0x27d4eb2f165667c5
	digestK5   = 0x94d049bb133111eb
)

// hashMessage folds m into the fire-log digest. m's protocol fields
// (all but Slot, which is routing) pack into six fixed words, so the
// digest has no dependence on struct layout. Each word, times its own
// odd constant, combines into one, which enters the running value
// through one multiply and one xorshift. Each of those steps is a
// bijection of every word and of the running value, so a change to
// any one word of any one message changes the digest, and only the
// serial step waits on the message before.
func (r *run) hashMessage(m *message) {
	w5 := uint64(m.Size)<<8 | uint64(m.Class)<<2
	if m.Write {
		w5 |= 1
	}
	if m.NeedFirst {
		w5 |= 2
	}
	x := uint64(m.DeliverAt)*digestK0 ^
		(uint64(m.Src)<<32|uint64(m.Kind)<<16|uint64(m.Sys))*digestK1 ^
		m.Seq*digestK2 ^ m.ID*digestK3 ^ m.Addr*digestK4 ^ w5*digestK5
	h := (r.hash ^ x) * digestMul
	r.hash = h ^ h>>32
}

// nextEpochEnd picks the next barrier time after end. The base step is
// one Δ, but when every shard's earliest pending event lies further
// out, the driver jumps straight to the first epoch boundary at or
// beyond that event — event-free epochs have no messages to exchange,
// so skipping them changes nothing observable. The jump never passes
// the boundary containing the earliest event, so a message posted at
// time t still delivers at t+Δ, strictly beyond the window end, and
// the barrier protocol's later-epoch delivery guarantee holds.
//
// The earliest event is the minimum lookahead: the barrier lowered
// each destination's lookahead to the deliveries it injected, and
// nothing else schedules between an epoch's end and the next epoch.
// The decision reads only barrier-time state, so it does not depend on
// which shards the epoch advanced.
func (r *run) nextEpochEnd(end sim.Time) sim.Time {
	var minNext sim.Time
	have := false
	for _, la := range r.ahead {
		if la.ok && (!have || la.at < minNext) {
			minNext, have = la.at, true
		}
	}
	if !have || minNext <= end+r.delta {
		return end + r.delta
	}
	k := (minNext - end + r.delta - 1) / r.delta // ceil((minNext-end)/Δ)
	return end + sim.Time(k)*r.delta
}

// terminal reports whether the cluster is finished: every core retired
// its budget, no request is outstanding anywhere, and the fabric is
// quiet. Valid only at a barrier with no messages in flight.
func (r *run) terminal() bool {
	for _, sh := range r.systems {
		if !sh.sys.Done() || sh.live > 0 {
			return false
		}
	}
	return r.mem.quiet()
}

// stuck reports a true deadlock: no shard holds any future event, no
// message is in flight, and the cluster is not terminal — nothing can
// ever fire again.
func (r *run) stuck() bool {
	for _, sh := range r.systems {
		if sh.sched.Pending() > 0 {
			return false
		}
	}
	return r.mem.quiet()
}

// checkBarrier runs the per-barrier bookkeeping: termination,
// deadlock, and (periodically) cancellation.
// It reports done=true when the cluster completed.
func (r *run) checkBarrier(ctx context.Context, exchanged int) (done bool, err error) {
	if exchanged == 0 {
		if r.terminal() {
			return true, nil
		}
		if r.stuck() {
			return false, fmt.Errorf("cluster: deadlock at epoch %d (%v): no events, no messages, cores not done",
				r.epochs, r.now)
		}
	}
	if r.epochs%ctxCheckEpochs == 0 {
		select {
		case <-ctx.Done():
			return false, fmt.Errorf("cluster: run aborted at epoch %d (%v): %w",
				r.epochs, r.now, context.Cause(ctx))
		default:
		}
	}
	return false, nil
}

// epoch runs one round of the protocol: advance the shards to the next
// barrier, exchange messages, then check termination, deadlock and
// cancellation. It reports done=true when the cluster completed.
func (r *run) epoch(ctx context.Context) (done bool, err error) {
	end := r.nextEpochEnd(r.now)
	r.advance(end)
	r.epochs++
	r.now = end
	return r.checkBarrier(ctx, r.barrier())
}

// loop primes the lookahead, then runs epochs until the cluster
// completes or fails. Advancing to time zero fires only what the first
// epoch would fire first anyway, in the same order, and nothing it
// posts can leave before that epoch's barrier. On completion every
// shard's clock is brought to the fabric clock, where the result is
// read. A panic in any shard comes back as an error.
func (r *run) loop(ctx context.Context) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster: shard panic: %v", p)
		}
	}()
	r.advance(0)
	for {
		done, err := r.epoch(ctx)
		if err != nil {
			return err
		}
		if done {
			r.catchUp()
			return nil
		}
	}
}

// advance steps the shards through the epoch in canonical order
// (systems by index, then the memory shard). A shard whose earliest
// event lies beyond the epoch has nothing to fire in it and is
// skipped: its clock stays behind until an event or catchUp moves it.
// Nothing reads a shard's clock between its events but the result, so
// a skipped shard is indistinguishable from one advanced through an
// idle epoch.
func (r *run) advance(end sim.Time) {
	for i, s := range r.scheds {
		if la := &r.ahead[i]; la.ok && la.at <= end {
			la.at, la.ok = s.RunUntil(end)
		}
	}
}

// catchUp advances every shard's clock to the fabric clock. It fires
// nothing: every shard's earliest event lies beyond the last epoch.
// The final samples and gauges (Snapshot's timeline sample, the
// memsim_sim_now_ps series) then read the same time as if every shard
// had been advanced through every epoch.
func (r *run) catchUp() {
	for _, s := range r.scheds {
		s.RunUntil(r.now)
	}
}
