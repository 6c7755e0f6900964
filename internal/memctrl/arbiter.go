package memctrl

import (
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/sim"
)

// ArbRequest is one block transfer from an identified requester
// contending for a shared channel. Unlike Request it carries the
// submitting system's index, so the arbiter can account occupancy
// shares and rotate grants fairly across systems.
type ArbRequest struct {
	// Sys identifies the requesting system (0-based cluster index).
	Sys int
	// Addr is the fabric-global block-aligned physical address,
	// already translated into this channel's local address space.
	Addr uint64
	// Size is the transfer length in bytes.
	Size uint64
	// Class labels the request for priority and statistics.
	Class channel.Class
	// Write marks writebacks (data flows to the devices).
	Write bool
	// OnFirstData, if non-nil, fires when the first data packet
	// completes: the critical word is available.
	OnFirstData func(sim.Time)
	// OnComplete, if non-nil, fires when the last data packet
	// completes: the full block has transferred.
	OnComplete func(sim.Time)

	submitted sim.Time
}

// ShareStats accounts one system's share of a shared channel: how many
// accesses of each class it was granted, the exact data-bus time those
// transfers consumed (the channel serializes all data traffic, so
// summing per-requester DataTime yields occupancy shares that add up
// to the channel's total busy time), queueing delay, and the queue
// high-water mark across the system's three class queues.
type ShareStats struct {
	Issued    [3]uint64
	DataTime  sim.Time
	QueueWait sim.Time
	MaxQueue  int
}

// Add returns the field-wise sum (aggregating one system's shares
// across multiple channels); MaxQueue takes the larger value.
func (s ShareStats) Add(o ShareStats) ShareStats {
	r := ShareStats{
		DataTime:  s.DataTime + o.DataTime,
		QueueWait: s.QueueWait + o.QueueWait,
		MaxQueue:  max(s.MaxQueue, o.MaxQueue),
	}
	for i := range s.Issued {
		r.Issued[i] = s.Issued[i] + o.Issued[i]
	}
	return r
}

// Total reports the total accesses granted across classes.
func (s ShareStats) Total() uint64 {
	var t uint64
	for _, n := range s.Issued {
		t += n
	}
	return t
}

// Arbiter schedules requests from multiple systems onto one shared
// logical Rambus channel. It keeps the paper's class priority — any
// pending demand miss or writeback issues before a prefetch — and adds
// the cross-system policy: within a class, grants rotate round-robin
// over the systems so no requester can starve the others, with
// per-system occupancy accounting to make interference measurable.
//
// The issue discipline mirrors Controller: one access decision at a
// time, the next gated on the previous access's last command packet.
type Arbiter struct {
	sched  *sim.Scheduler
	ch     *channel.Channel
	mapper addrmap.Mapper

	// queues[sys][class] is system sys's in-order queue for class.
	queues [][3][]*ArbRequest
	// rr[class] is the next system to consider for class grants.
	rr [3]int

	// gate is the earliest time the next issue decision may be made.
	gate sim.Time
	// armed tracks whether a decision event is scheduled.
	armed bool
	// decideCB is the pre-bound decision callback, bound once at
	// construction so arming costs no allocation.
	decideCB sim.Callback
	// spans is the reused buffer decide decomposes each transfer into.
	spans []addrmap.Span

	shares []ShareStats
	queued int
}

// NewArbiter wires a multi-requester arbiter for systems systems to a
// channel and address mapping.
func NewArbiter(sched *sim.Scheduler, ch *channel.Channel, mapper addrmap.Mapper, systems int) (*Arbiter, error) {
	if systems <= 0 {
		return nil, fmt.Errorf("memctrl: arbiter needs at least one system, got %d", systems)
	}
	a := &Arbiter{
		sched:  sched,
		ch:     ch,
		mapper: mapper,
		queues: make([][3][]*ArbRequest, systems),
		shares: make([]ShareStats, systems),
	}
	a.decideCB = func(sim.Time, any) { a.decide() }
	return a, nil
}

// Channel exposes the attached channel (for utilization statistics).
func (a *Arbiter) Channel() *channel.Channel { return a.ch }

// Shares returns a snapshot of every system's occupancy accounting.
func (a *Arbiter) Shares() []ShareStats {
	out := make([]ShareStats, len(a.shares))
	copy(out, a.shares)
	return out
}

// Pending reports whether any request is queued or a decision event is
// armed (used by the cluster's termination check).
func (a *Arbiter) Pending() bool { return a.queued > 0 || a.armed }

// Submit enqueues a request on its system's class queue.
func (a *Arbiter) Submit(r *ArbRequest) {
	if r.Sys < 0 || r.Sys >= len(a.queues) {
		panic(fmt.Sprintf("memctrl: arbiter request from unknown system %d (have %d)", r.Sys, len(a.queues)))
	}
	r.submitted = a.sched.Now()
	q := &a.queues[r.Sys]
	q[r.Class] = append(q[r.Class], r)
	a.queued++
	if depth := len(q[channel.Demand]) + len(q[channel.Writeback]) + len(q[channel.Prefetch]); depth > a.shares[r.Sys].MaxQueue {
		a.shares[r.Sys].MaxQueue = depth
	}
	a.arm()
}

// arm schedules a decision at the gate time if one is not already
// scheduled.
func (a *Arbiter) arm() {
	if a.armed {
		return
	}
	a.armed = true
	a.sched.AtCall(a.gate, a.decideCB, nil)
}

// grant picks the next request: the highest non-empty class, and
// within it the first system with work at or after the class's
// round-robin cursor. The cursor then moves past the granted system,
// so persistent contenders alternate instead of the lowest index
// winning every slot.
func (a *Arbiter) grant() *ArbRequest {
	n := len(a.queues)
	for class := channel.Demand; class <= channel.Prefetch; class++ {
		for i := 0; i < n; i++ {
			sys := (a.rr[class] + i) % n
			q := &a.queues[sys]
			if len(q[class]) == 0 {
				continue
			}
			r := q[class][0]
			copy(q[class], q[class][1:])
			q[class] = q[class][:len(q[class])-1]
			a.rr[class] = (sys + 1) % n
			a.queued--
			return r
		}
	}
	return nil
}

// decide issues the next granted request onto the channel.
func (a *Arbiter) decide() {
	a.armed = false
	r := a.grant()
	if r == nil {
		return
	}
	now := a.sched.Now()

	a.spans = addrmap.AppendSpans(a.spans[:0], a.mapper, r.Addr, r.Size)
	res := a.ch.Access(now, a.spans, r.Class, r.Write)
	sh := &a.shares[r.Sys]
	sh.Issued[r.Class]++
	sh.DataTime += res.DataTime
	sh.QueueWait += now - r.submitted
	if r.OnFirstData != nil {
		a.sched.AtCall(res.FirstData, fireArbFirstData, r)
	}
	if r.OnComplete != nil {
		a.sched.AtCall(res.LastData, fireArbComplete, r)
	}

	a.gate = res.CmdDone
	if a.queued > 0 {
		a.arm()
	}
}

// fireArbFirstData and fireArbComplete are the completion dispatchers;
// the event payload carries the *ArbRequest so scheduling allocates
// nothing.
func fireArbFirstData(at sim.Time, arg any) { arg.(*ArbRequest).OnFirstData(at) }
func fireArbComplete(at sim.Time, arg any)  { arg.(*ArbRequest).OnComplete(at) }
