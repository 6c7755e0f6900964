package cluster

import (
	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/dram"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/policy"
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

// memoryShard owns the shared fabric: one shared controller, channel
// and mapper per physical channel.
type memoryShard struct {
	ctrls    []*memctrl.Controller
	chns     []*channel.Channel
	obs      *obs.Observer // fabric-level channel/bank lanes (tracing only)
	capacity uint64
}

// fabricBlockBytes is the channel-stripe granule. Systems submit
// L2-block-sized transfers; a transfer is served whole by the channel
// owning its first granule.
const fabricBlockBytes = 64

func newMemoryShard(r *run) (*memoryShard, error) {
	cfg := r.cfg
	ms := &memoryShard{}
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

// submit lands t on the controller of the channel owning its block:
// the system's address is skewed into its own slice of the fabric and
// compacted into that channel's private space.
func (ms *memoryShard) submit(t *transfer) {
	req := t.req
	addr := (req.Addr + uint64(t.Sys)*skewBlocks*fabricBlockBytes) % ms.capacity
	ch, local := addrmap.Stripe(addr, fabricBlockBytes, len(ms.ctrls))
	t.Request = memctrl.Request{
		Sys:        t.Sys,
		Addr:       local,
		Size:       req.Size,
		Class:      req.Class,
		Write:      req.Write,
		OnComplete: t.onComplete,
	}
	if req.OnFirstData != nil {
		t.OnFirstData = t.onFirst
	}
	ms.ctrls[ch].Submit(&t.Request)
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
