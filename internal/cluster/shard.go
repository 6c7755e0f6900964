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

// msgKind discriminates the fabric's message types.
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

// message is one link crossing. It is pure comparable data — no
// pointers, no closures — so it carries no reference into its sender's
// state: request closures stay on the owning system shard, in its
// pending table.
type message struct {
	// Sent is the send time; the message is delivered one link latency
	// later.
	Sent sim.Time
	// ID is the request's per-system sequence number, which the
	// occupant of Slot must carry.
	ID uint64

	// Request payload (msgRequest only): Size is the transfer's length
	// in bytes and Class its channel.Class.
	Addr uint64
	Size uint32

	// Slot is the request's index in the owning system's pending
	// table, echoed back on completions. It is routing, not protocol:
	// the fire-log digest does not read it.
	Slot uint32
	// Sys is the owning system.
	Sys uint16

	Kind  msgKind
	Class uint8
	Write bool
	// NeedFirst marks requests whose submitter wants the critical-word
	// callback, so the memory shard sends msgFirstData only when
	// someone is listening.
	NeedFirst bool
}

// pendingEntry is one slot of a system's pending table: the live
// request and the ID of the message that carried it out. A nil req
// marks a free slot.
type pendingEntry struct {
	id  uint64
	req *memctrl.Request
}

// systemShard wraps one core system and the pending table holding the
// live *memctrl.Request of every outstanding transfer. It implements
// core.ExternalMemory, so the system's miss path lands in Submit.
type systemShard struct {
	r     *run
	idx   int
	label string
	sys   *core.System

	nextID uint64

	// pending is indexed by message.Slot; freeSlots stacks the
	// unoccupied indices and live counts the occupied ones.
	pending   []pendingEntry
	freeSlots []uint32
	live      int
}

// Submit implements core.ExternalMemory: park the request in a free
// pending slot and send its wire form to the memory shard.
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
	// Size holds any transfer: one L2 block at most, and core.Config
	// caps a cache at 1 GB.
	sh.r.send(message{
		ID:        id,
		Addr:      r.Addr,
		Size:      uint32(r.Size),
		Slot:      slot,
		Sys:       uint16(sh.idx),
		Kind:      msgRequest,
		Class:     uint8(r.Class),
		Write:     r.Write,
		NeedFirst: r.OnFirstData != nil,
	})
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
// and mapper per physical channel. It receives request messages, skews
// each system into its own slice of the physical address space,
// stripes blocks across channels, and sends completions back.
type memoryShard struct {
	r *run

	ctrls []*memctrl.Controller
	chns  []*channel.Channel
	obs   *obs.Observer // fabric-level channel/bank lanes (tracing only)

	capacity   uint64
	blockBytes uint64
	skew       uint64

	reqs      []*fabricReq // free fabric requests
	reqsBuilt int          // fabric requests ever made
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

func newMemoryShard(r *run) (*memoryShard, error) {
	cfg := r.cfg
	ms := &memoryShard{
		r:          r,
		blockBytes: fabricBlockBytes,
		skew:       skewBlocks * fabricBlockBytes,
	}
	if cfg.Obs.Trace {
		// The fabric gets its own trace lanes (one channel/bank pair
		// per physical channel) exported as the "fabric" process next
		// to the per-system processes.
		ms.obs = obs.New(obs.Config{Trace: true, TraceEvents: cfg.Obs.TraceEvents}, r.sched.Now)
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
		ms.ctrls = append(ms.ctrls, memctrl.NewShared(r.sched, chn, mapr, len(cfg.Systems)))
	}
	return ms, nil
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
	f.onFirst = func(sim.Time) { ms.reply(msgFirstData, f) }
	f.onComplete = func(sim.Time) {
		ms.reply(msgComplete, f)
		ms.reqs = append(ms.reqs, f)
	}
	return f
}

// onRequest lands a system's transfer on the controller of the channel
// owning its block, compacted into that channel's private space.
func (ms *memoryShard) onRequest(m *message) {
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

// reply sends a completion message for f back to its owning system.
func (ms *memoryShard) reply(kind msgKind, f *fabricReq) {
	ms.r.send(message{ID: f.id, Slot: f.slot, Sys: f.Sys, Kind: kind})
}

// busy reports whether a controller still holds queued or armed work.
func (ms *memoryShard) busy() bool {
	for _, c := range ms.ctrls {
		if c.Pending() {
			return true
		}
	}
	return false
}
