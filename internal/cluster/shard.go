package cluster

import (
	"memsim/internal/core"
	"memsim/internal/memctrl"
	"memsim/internal/sim"
)

// msgKind discriminates the link's crossings.
type msgKind uint8

const (
	// msgRequest carries a block transfer from a system to the shared
	// controllers.
	msgRequest msgKind = iota
	// msgFirstData reports the critical word back to the requester
	// (demand misses that registered a first-data callback only).
	msgFirstData
	// msgComplete reports full-block completion back to the requester.
	msgComplete
)

// message is the fire-log record of one link crossing: the fields the
// digest folds (hashMessage) and the tap shows to tests. It is built
// when the crossing lands.
type message struct {
	// Sent is the send time: the landing time minus the link latency.
	Sent sim.Time
	// ID is the request's per-system sequence number.
	ID uint64

	// Request fields (msgRequest only): Size is the transfer's length
	// in bytes and Class its channel.Class.
	Addr uint64
	Size uint32

	// Sys is the owning system.
	Sys uint16

	Kind  msgKind
	Class uint8
	Write bool
	// NeedFirst marks requests whose submitter wants the critical-word
	// callback, so the shared controller reports first data only when
	// someone is listening.
	NeedFirst bool
}

// transfer is one request crossing the link: the member's request, its
// per-system ID, and the embedded request the shared controller serves
// in its place. Transfers are pooled; onFirst and onComplete, the
// embedded request's callbacks, are bound once, when the transfer is
// built, and send it back across the link.
type transfer struct {
	memctrl.Request
	req                 *memctrl.Request // the member's; nil while pooled
	id                  uint64
	onFirst, onComplete func(sim.Time)
}

// systemShard wraps one core system. It implements core.ExternalMemory,
// so the system's miss path lands in Submit.
type systemShard struct {
	r      *run
	idx    int
	label  string
	sys    *core.System
	nextID uint64
}

// Submit implements core.ExternalMemory: put the request on the link.
func (sh *systemShard) Submit(req *memctrl.Request) {
	r := sh.r
	t := r.newTransfer()
	t.req, t.id, t.Sys = req, sh.nextID, uint16(sh.idx)
	sh.nextID++
	r.sched.ScheduleCall(r.cfg.LinkLatency, r.arriveCB, t)
}
