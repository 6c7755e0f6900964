package cluster

import (
	"cmp"
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
	"memsim/internal/sim"
)

// msgKind discriminates the cross-shard message types.
type msgKind uint8

const (
	// msgRequest carries a block transfer from a system to the memory
	// shard.
	msgRequest msgKind = iota
	// msgFirstData reports the critical word back to the requester
	// (demand misses that registered a first-data callback only).
	msgFirstData
	// msgComplete reports full-block completion back to the requester;
	// it also closes the request's entry in the system's pending table.
	msgComplete
)

// message is one cross-shard event. It is pure comparable data — no
// pointers, no closures — so shards share nothing: request closures
// stay on the owning system shard, in its pending table.
type message struct {
	// DeliverAt is the absolute delivery time: send time plus the link
	// latency, which always lands in a strictly later epoch.
	DeliverAt sim.Time
	// Src is the sending shard (systems 0..N-1, memory shard N) and
	// Seq its per-source send counter; together with DeliverAt they
	// define the canonical total order messages are merged in.
	Src int
	Seq uint64

	Kind msgKind
	// Slot is the request's index in the owning system's pending
	// table, echoed back on completions. It is routing, not protocol:
	// neither the merge order nor the fire-log digest reads it.
	Slot uint32
	// Sys is the owning system and ID the request's per-system
	// sequence number, which the occupant of Slot must carry.
	Sys int
	ID  uint64

	// Request payload (msgRequest only).
	Addr, Size uint64
	Class      channel.Class
	Write      bool
	// NeedFirst marks requests whose submitter wants the critical-word
	// callback, so the memory shard sends msgFirstData only when
	// someone is listening.
	NeedFirst bool
}

// msgCmp is the canonical merge order, as a three-way comparator for
// slices.SortFunc: delivery time, then source shard, then per-source
// sequence. The triple is unique (Seq never repeats within a Src), so
// the order is total and independent of which goroutine produced which
// message first.
func msgCmp(a, b message) int {
	if c := cmp.Compare(a.DeliverAt, b.DeliverAt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// msgPool recycles the *message payloads of delivery events: inject
// copies a message into a free slot, and the delivery callback copies
// it back out and returns the slot before acting on it, so a slot is
// never live past its own event. Passing a pointer through the
// event's payload keeps scheduling allocation-free.
type msgPool struct {
	free  []*message
	built int // slots ever made; equals len(free) when none is in flight
}

func (p *msgPool) get(m message) *message {
	var slot *message
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		slot = new(message)
		p.built++
	}
	*slot = m
	return slot
}

// take copies the message out of its slot and recycles the slot.
func (p *msgPool) take(slot *message) message {
	m := *slot
	p.free = append(p.free, slot)
	return m
}

// pendingEntry is one slot of a system's pending table: the live
// request and the ID of the message that carried it out. A nil req
// marks a free slot.
type pendingEntry struct {
	id  uint64
	req *memctrl.Request
}

// systemShard wraps one core system: its private scheduler, the
// pending table holding the live *memctrl.Request of every
// outstanding transfer, and the outbox drained at each barrier. It
// implements core.ExternalMemory, so the system's miss path lands in
// Submit.
type systemShard struct {
	idx   int
	label string
	sys   *core.System
	sched *sim.Scheduler
	link  sim.Time

	nextID uint64
	seq    uint64
	outbox []message

	// pending is indexed by message.Slot; freeSlots stacks the
	// unoccupied indices and live counts the occupied ones.
	pending   []pendingEntry
	freeSlots []uint32
	live      int

	msgs      msgPool
	deliverCB sim.Callback
}

func newSystemShard(idx int, label string, link sim.Time) *systemShard {
	sh := &systemShard{
		idx:   idx,
		label: label,
		link:  link,
	}
	sh.deliverCB = func(at sim.Time, arg any) { sh.onDeliver(at, sh.msgs.take(arg.(*message))) }
	return sh
}

// attach binds the built system (newSystemShard must exist first: the
// shard is the ExternalMemory passed to core.NewExternal).
func (sh *systemShard) attach(sys *core.System) {
	sh.sys = sys
	sh.sched = sys.Sched()
}

// Submit implements core.ExternalMemory: park the request in a free
// pending slot and post its wire form to the outbox.
func (sh *systemShard) Submit(r *memctrl.Request) {
	id := sh.nextID
	sh.nextID++
	var slot uint32
	if n := len(sh.freeSlots); n > 0 {
		slot = sh.freeSlots[n-1]
		sh.freeSlots = sh.freeSlots[:n-1]
	} else {
		slot = uint32(len(sh.pending))
		sh.pending = append(sh.pending, pendingEntry{})
	}
	sh.pending[slot] = pendingEntry{id: id, req: r}
	sh.live++
	sh.post(message{
		Kind:      msgRequest,
		Slot:      slot,
		Sys:       sh.idx,
		ID:        id,
		Addr:      r.Addr,
		Size:      r.Size,
		Class:     r.Class,
		Write:     r.Write,
		NeedFirst: r.OnFirstData != nil,
	})
}

// post stamps and queues an outgoing message; it leaves the shard at
// the next barrier.
func (sh *systemShard) post(m message) {
	m.DeliverAt = sh.sched.Now() + sh.link
	m.Src = sh.idx
	m.Seq = sh.seq
	sh.seq++
	sh.outbox = append(sh.outbox, m)
}

// inject schedules an incoming message's delivery on the shard's own
// scheduler. Called at barriers only, in canonical message order, so
// scheduler sequence numbers — and therefore same-instant event order
// — are identical in both engines.
func (sh *systemShard) inject(m message) {
	sh.sched.AtCall(m.DeliverAt, sh.deliverCB, sh.msgs.get(m))
}

// onDeliver resolves an incoming completion against the pending table.
// The slot's occupant must be the request the message was sent for: a
// completion for a closed slot, or for a slot since reused by a later
// request, is a protocol violation.
func (sh *systemShard) onDeliver(at sim.Time, m message) {
	if int(m.Slot) >= len(sh.pending) || sh.pending[m.Slot].req == nil || sh.pending[m.Slot].id != m.ID {
		panic(fmt.Sprintf("cluster: %s: completion for unknown request %d (kind %d)", sh.label, m.ID, m.Kind))
	}
	r := sh.pending[m.Slot].req
	switch m.Kind {
	case msgFirstData:
		if r.OnFirstData != nil {
			r.OnFirstData(at)
		}
	case msgComplete:
		sh.pending[m.Slot] = pendingEntry{}
		sh.freeSlots = append(sh.freeSlots, m.Slot)
		sh.live--
		if r.OnComplete != nil {
			r.OnComplete(at)
		}
		if r.OnRelease != nil {
			r.OnRelease(r)
		}
	default:
		panic(fmt.Sprintf("cluster: %s: unexpected message kind %d", sh.label, m.Kind))
	}
}

// memoryShard owns the shared fabric: one shared controller, channel
// and mapper per physical channel, all on one private scheduler. It
// receives request messages at barriers, skews each system into its
// own slice of the physical address space, stripes blocks across
// channels, and posts completions back through its outbox.
type memoryShard struct {
	idx   int
	sched *sim.Scheduler
	link  sim.Time

	ctrls  []*memctrl.Controller
	chns   []*channel.Channel
	obs    *obs.Observer // fabric-level channel/bank lanes (tracing only)
	seq    uint64
	outbox []message

	capacity   uint64
	blockBytes uint64
	skew       uint64

	msgs      msgPool
	reqs      []*fabricReq // free fabric requests
	reqsBuilt int          // fabric requests ever made
	requestCB sim.Callback
}

// fabricReq is one in-flight transfer on the memory shard: the
// controller's request plus the routing its completion messages echo
// back. Entries are pooled. Both callbacks are bound once, when the
// entry is first built; onFirst is installed as OnFirstData only for
// requests that asked for it. An entry returns to the pool at the end
// of its onComplete, the last event the controller fires for it (first
// data never lands after the last data, and at the same instant it was
// scheduled first).
type fabricReq struct {
	memctrl.Request
	id                  uint64
	slot                uint32
	onFirst, onComplete func(sim.Time)
}

// fabricBlockBytes is the channel-stripe granule. Systems submit
// L2-block-sized transfers; a transfer is served whole by the channel
// owning its first granule.
const fabricBlockBytes = 64

func newMemoryShard(idx int, cfg Config, nsys int) (*memoryShard, error) {
	ms := &memoryShard{
		idx:        idx,
		sched:      sim.NewScheduler(),
		link:       cfg.LinkLatency,
		blockBytes: fabricBlockBytes,
		skew:       skewBlocks * fabricBlockBytes,
	}
	ms.requestCB = func(at sim.Time, arg any) { ms.onRequest(at, ms.msgs.take(arg.(*message))) }
	if cfg.Obs.Trace {
		// The fabric gets its own trace lanes (one channel/bank pair
		// per physical channel) exported as the "fabric" process next
		// to the per-system processes.
		ms.obs = obs.New(obs.Config{Trace: true, TraceEvents: cfg.Obs.TraceEvents}, ms.sched.Now)
	}

	geom := addrmap.Geometry{Channels: 1, DevicesPerChannel: cfg.DevicesPerChannel}
	ms.capacity = geom.Capacity() * uint64(cfg.Channels)
	chCfg := channel.Config{Geometry: geom, Timing: cfg.Timing, ClosedPage: cfg.ClosedPage}
	for c := 0; c < cfg.Channels; c++ {
		mapr, err := addrmap.ByName(cfg.Mapping, geom)
		if err != nil {
			return nil, err
		}
		// Each channel gets a fresh timing-policy instance: rowreuse
		// tracks per-bank state that must not be shared across channels.
		ccfg := chCfg
		ccfg.TimingPol, err = policy.NewTiming(cfg.BankTiming, policy.TimingParams{})
		if err != nil {
			return nil, err
		}
		chn, err := channel.New(ccfg)
		if err != nil {
			return nil, err
		}
		if ms.obs != nil {
			chn.Observe(ms.obs, c)
		}
		ms.chns = append(ms.chns, chn)
		ms.ctrls = append(ms.ctrls, memctrl.NewShared(ms.sched, chn, mapr, nsys))
	}
	return ms, nil
}

// inject schedules an incoming request's arrival at the fabric.
func (ms *memoryShard) inject(m message) {
	ms.sched.AtCall(m.DeliverAt, ms.requestCB, ms.msgs.get(m))
}

// newFabricReq takes a free fabric request, or builds one with its
// callbacks bound.
func (ms *memoryShard) newFabricReq() *fabricReq {
	if n := len(ms.reqs); n > 0 {
		f := ms.reqs[n-1]
		ms.reqs = ms.reqs[:n-1]
		return f
	}
	ms.reqsBuilt++
	f := &fabricReq{}
	f.onFirst = func(at sim.Time) { ms.post(msgFirstData, f, at) }
	f.onComplete = func(at sim.Time) {
		ms.post(msgComplete, f, at)
		ms.reqs = append(ms.reqs, f)
	}
	return f
}

// onRequest lands a system's transfer on the controller of the channel
// owning its block, compacted into that channel's private space.
func (ms *memoryShard) onRequest(_ sim.Time, m message) {
	addr := (m.Addr + uint64(m.Sys)*ms.skew) % ms.capacity
	ch, local := addrmap.Stripe(addr, ms.blockBytes, len(ms.ctrls))
	f := ms.newFabricReq()
	f.id, f.slot = m.ID, m.Slot
	f.Request = memctrl.Request{
		Sys:        uint16(m.Sys),
		Addr:       local,
		Size:       m.Size,
		Class:      m.Class,
		Write:      m.Write,
		OnComplete: f.onComplete,
	}
	if m.NeedFirst {
		f.OnFirstData = f.onFirst
	}
	ms.ctrls[ch].Submit(&f.Request)
}

// post queues a completion message for f back to its owning system.
func (ms *memoryShard) post(kind msgKind, f *fabricReq, at sim.Time) {
	ms.outbox = append(ms.outbox, message{
		DeliverAt: at + ms.link,
		Src:       ms.idx,
		Seq:       ms.seq,
		Kind:      kind,
		Slot:      f.slot,
		Sys:       int(f.Sys),
		ID:        f.id,
	})
	ms.seq++
}

// quiet reports whether the fabric can never act again without new
// input: no scheduled events, no queued or armed controllers, nothing
// waiting to leave.
func (ms *memoryShard) quiet() bool {
	if ms.sched.Pending() > 0 || len(ms.outbox) > 0 {
		return false
	}
	for _, c := range ms.ctrls {
		if c.Pending() {
			return false
		}
	}
	return true
}
