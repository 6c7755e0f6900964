package cluster

import (
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/dram"
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
// pointers, no closures — so it carries no reference into its sender's
// state: request closures stay on the owning system shard, in its
// pending table. Fields are ordered and narrowed to pack it into 48
// bytes.
type message struct {
	// DeliverAt is the absolute delivery time: send time plus the link
	// latency, which always lands in a strictly later epoch.
	DeliverAt sim.Time
	// Seq is the per-source send counter; with DeliverAt and Src it
	// defines the canonical total order messages are merged in.
	Seq uint64
	// ID is the request's per-system sequence number, which the
	// occupant of Slot must carry.
	ID uint64

	// Request payload (msgRequest only): Size is the transfer's length
	// in bytes and Class its channel.Class.
	Addr uint64
	Size uint32

	// Slot is the request's index in the owning system's pending
	// table, echoed back on completions. It is routing, not protocol:
	// neither the merge order nor the fire-log digest reads it.
	Slot uint32
	// Src is the sending shard (systems 0..N-1, memory shard N) and
	// Sys the owning system.
	Src, Sys uint16

	Kind  msgKind
	Class uint8
	Write bool
	// NeedFirst marks requests whose submitter wants the critical-word
	// callback, so the memory shard sends msgFirstData only when
	// someone is listening.
	NeedFirst bool
}

// outbox holds a shard's posted messages until the barrier injects
// them. A shard's clock never goes back and its Seq only rises, so
// each outbox is already in canonical order (DeliverAt, then Seq) and
// the barrier merges outboxes without sorting.
//
// Deliveries point into the outbox itself, so no message is copied
// after post builds it. That is safe because an outbox has two
// buffers: the barrier flips them, and posts of the next epoch fill
// the other one while the injected batch is delivered. A message sent
// during the epoch ending at e delivers by e+Δ, no later than the next
// barrier, so every message of a batch has fired before a later flip
// hands its buffer back to post.
type outbox struct {
	msgs  []message // posted this epoch, in canonical order
	spare []message // the previous batch, delivered during this epoch
	next  int       // the barrier's merge cursor into msgs
}

// post appends m to the outbox. A delivery time earlier than the last
// one would break the merge's order, so it is a bug.
func (o *outbox) post(m message) {
	if n := len(o.msgs); n > 0 && m.DeliverAt < o.msgs[n-1].DeliverAt {
		panic(fmt.Sprintf("cluster: shard %d posted a message for %v after one for %v", m.Src, m.DeliverAt, o.msgs[n-1].DeliverAt))
	}
	o.msgs = append(o.msgs, m)
}

// flip hands the drained batch to its deliveries and takes the other
// buffer for the next epoch's posts.
func (o *outbox) flip() {
	o.msgs, o.spare = o.spare[:0], o.msgs
	o.next = 0
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
	outbox outbox

	// pending is indexed by message.Slot; freeSlots stacks the
	// unoccupied indices and live counts the occupied ones.
	pending   []pendingEntry
	freeSlots []uint32
	live      int

	deliverCB sim.Callback
}

func newSystemShard(idx int, label string, link sim.Time) *systemShard {
	sh := &systemShard{
		idx:   idx,
		label: label,
		link:  link,
	}
	sh.deliverCB = func(at sim.Time, arg any) { sh.onDeliver(at, arg.(*message)) }
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
	// The message leaves the shard at the next barrier. Its Size
	// field holds any transfer: one L2 block at most, and
	// core.Config caps a cache at 1 GB.
	sh.outbox.post(message{
		DeliverAt: sh.sched.Now() + sh.link,
		Seq:       sh.seq,
		ID:        id,
		Addr:      r.Addr,
		Size:      uint32(r.Size),
		Slot:      slot,
		Src:       uint16(sh.idx),
		Sys:       uint16(sh.idx),
		Kind:      msgRequest,
		Class:     uint8(r.Class),
		Write:     r.Write,
		NeedFirst: r.OnFirstData != nil,
	})
	sh.seq++
}

// inject schedules an incoming message's delivery on the shard's own
// scheduler. Called at barriers only, in canonical message order, so
// scheduler sequence numbers — and therefore same-instant event order
// — are identical in both engines.
func (sh *systemShard) inject(m *message) {
	sh.sched.AtCall(m.DeliverAt, sh.deliverCB, m)
}

// onDeliver resolves an incoming completion against the pending table.
// The slot's occupant must be the request the message was sent for: a
// completion for a closed slot, or for a slot since reused by a later
// request, is a protocol violation.
func (sh *systemShard) onDeliver(at sim.Time, m *message) {
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
	outbox outbox

	capacity   uint64
	blockBytes uint64
	skew       uint64

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
	ms.requestCB = func(at sim.Time, arg any) { ms.onRequest(at, arg.(*message)) }
	if cfg.Obs.Trace {
		// The fabric gets its own trace lanes (one channel/bank pair
		// per physical channel) exported as the "fabric" process next
		// to the per-system processes.
		ms.obs = obs.New(obs.Config{Trace: true, TraceEvents: cfg.Obs.TraceEvents}, ms.sched.Now)
	}

	org, err := policy.NewOrganization(fabricInterleaving,
		addrmap.Geometry{Channels: cfg.Channels, DevicesPerChannel: cfg.DevicesPerChannel})
	if err != nil {
		return nil, err
	}
	ms.capacity = org.Capacity()
	ms.chns = make([]*channel.Channel, 0, org.Groups)
	ms.ctrls = make([]*memctrl.Controller, 0, org.Groups)
	chCfg := channel.Config{Timing: dram.Parts[cfg.Part], ClosedPage: cfg.ClosedPage}
	for c := 0; c < org.Groups; c++ {
		chn, mapr, err := org.NewGroup(cfg.Mapping, cfg.BankTiming, chCfg)
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
func (ms *memoryShard) inject(m *message) {
	ms.sched.AtCall(m.DeliverAt, ms.requestCB, m)
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
func (ms *memoryShard) onRequest(_ sim.Time, m *message) {
	addr := (m.Addr + uint64(m.Sys)*ms.skew) % ms.capacity
	ch, local := addrmap.Stripe(addr, ms.blockBytes, len(ms.ctrls))
	f := ms.newFabricReq()
	f.id, f.slot = m.ID, m.Slot
	f.Request = memctrl.Request{
		Sys:        m.Sys,
		Addr:       local,
		Size:       uint64(m.Size),
		Class:      channel.Class(m.Class),
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
	ms.outbox.post(message{
		DeliverAt: at + ms.link,
		Seq:       ms.seq,
		ID:        f.id,
		Slot:      f.slot,
		Src:       uint16(ms.idx),
		Sys:       f.Sys,
		Kind:      kind,
	})
	ms.seq++
}

// quiet reports whether the fabric can never act again without new
// input: no scheduled events, no queued or armed controllers, nothing
// waiting to leave.
func (ms *memoryShard) quiet() bool {
	if ms.sched.Pending() > 0 || len(ms.outbox.msgs) > 0 {
		return false
	}
	for _, c := range ms.ctrls {
		if c.Pending() {
			return false
		}
	}
	return true
}
