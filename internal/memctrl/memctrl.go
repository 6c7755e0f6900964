// Package memctrl implements the integrated memory controller: request
// queues for demand misses and writebacks, and the access prioritizer
// of Figure 4, which forwards any pending L2 demand miss or writeback
// before it will forward a prefetch request.
//
// One Controller drives one logical Rambus channel for one or more
// requesters. A private channel (New) has a single requester, the
// system that owns it. A shared channel (NewShared) serves the member
// systems of a cluster: each requester has its own demand and
// writeback queues, grants rotate round-robin across requesters within
// a queue class, and per-requester ShareStats account each system's
// share of the channel. The class priority is the same in both forms.
//
// Within a queue the IssuePolicy picks the next request. The default,
// FCFS, issues strictly in order; the controller pipelines requests on
// the channel but does not reorder or interleave commands from
// multiple requests (Section 4.4). Unscheduled prefetches wait in the
// demand queue. Scheduled prefetches are pulled from a PrefetchSource
// only at instants when the channel is otherwise completely idle, so
// they add channel contention only when a demand miss arrives while a
// prefetch is already in progress.
package memctrl

import (
	"fmt"

	"memsim/internal/addrmap"
	"memsim/internal/channel"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

// Request is one block transfer to schedule on the memory channel.
type Request struct {
	// Addr is the block-aligned physical address.
	Addr uint64
	// Size is the transfer length in bytes (the L2 block size).
	Size uint64
	// Class labels the request for priority and statistics.
	Class channel.Class
	// Write marks writebacks (data flows to the devices).
	Write bool
	// tracked marks a transfer counted in the controller's pending
	// table (see EnableTracking); its completion releases the count.
	tracked bool
	// Sys is the requester index on a shared controller, 0 on a
	// private one. It sits beside Write and tracked so the struct
	// stays eight words: every queued writeback holds one.
	Sys uint16
	// OnFirstData, if non-nil, fires when the first data packet
	// completes: the critical word is available.
	OnFirstData func(sim.Time)
	// OnComplete, if non-nil, fires when the last data packet
	// completes: the full block has transferred.
	OnComplete func(sim.Time)
	// OnRelease, if non-nil, receives the request once whoever holds
	// it is done with it: at the last-data event, after OnComplete and the
	// paranoid tracking release, or at issue when no callback and no
	// tracking waits on the transfer. An owner that pools requests may
	// reuse this one from then on.
	OnRelease func(*Request)

	submitted sim.Time
}

// release hands the request back to its owner.
func (r *Request) release() {
	if r.OnRelease != nil {
		r.OnRelease(r)
	}
}

// PrefetchSource supplies prefetch requests on demand. NextPrefetch is
// invoked only when the channel is idle and no demand miss or
// writeback is pending; returning ok=false means nothing to prefetch.
type PrefetchSource interface {
	NextPrefetch(now sim.Time) (*Request, bool)
}

// Stats counts controller activity.
type Stats struct {
	Issued [3]uint64 // by class
	// DemandLatency accumulates submit-to-critical-word time for
	// demand misses; divide by Issued[Demand] for the mean.
	DemandLatency sim.Time
	// DemandQueueWait accumulates submit-to-issue time.
	DemandQueueWait sim.Time
	// PrefetchesBehindDemand counts demand misses that arrived while a
	// prefetch transfer was still occupying the channel.
	PrefetchesBehindDemand uint64
	// MaxDemandQueue is the demand queue's high-water mark.
	MaxDemandQueue int
	// Reordered counts requests issued ahead of older queue entries by
	// the open-row-first extension.
	Reordered uint64
}

// Delta returns the counters accumulated since base was captured.
// MaxDemandQueue remains the run-wide high-water mark.
func (s Stats) Delta(base Stats) Stats {
	d := Stats{
		DemandLatency:          s.DemandLatency - base.DemandLatency,
		DemandQueueWait:        s.DemandQueueWait - base.DemandQueueWait,
		PrefetchesBehindDemand: s.PrefetchesBehindDemand - base.PrefetchesBehindDemand,
		MaxDemandQueue:         s.MaxDemandQueue,
		Reordered:              s.Reordered - base.Reordered,
	}
	for i := range s.Issued {
		d.Issued[i] = s.Issued[i] - base.Issued[i]
	}
	return d
}

// Add returns the field-wise sum of two counter sets (aggregating
// multiple controllers); MaxDemandQueue takes the larger value.
func (s Stats) Add(o Stats) Stats {
	r := Stats{
		DemandLatency:          s.DemandLatency + o.DemandLatency,
		DemandQueueWait:        s.DemandQueueWait + o.DemandQueueWait,
		PrefetchesBehindDemand: s.PrefetchesBehindDemand + o.PrefetchesBehindDemand,
		MaxDemandQueue:         max(s.MaxDemandQueue, o.MaxDemandQueue),
		Reordered:              s.Reordered + o.Reordered,
	}
	for i := range s.Issued {
		r.Issued[i] = s.Issued[i] + o.Issued[i]
	}
	return r
}

// MeanDemandLatency reports the average demand miss latency.
func (s Stats) MeanDemandLatency() sim.Time {
	if s.Issued[channel.Demand] == 0 {
		return 0
	}
	return s.DemandLatency / sim.Time(s.Issued[channel.Demand])
}

// ShareStats accounts one requester's share of a channel: how many
// accesses of each class it was granted, the exact data-bus time those
// transfers consumed (the channel serializes all data traffic, so
// summing per-requester DataTime yields occupancy shares that add up
// to the channel's total busy time), queueing delay, and the queue
// high-water mark across the requester's demand and writeback queues.
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

// Queue classes, in priority order: any queued demand miss (or
// unscheduled prefetch) issues before any writeback.
const (
	demandQ = iota
	writebackQ
	numQueues
)

// queueOf names the queue class a request waits in.
func queueOf(c channel.Class) int {
	if c == channel.Writeback {
		return writebackQ
	}
	return demandQ
}

// Controller schedules requests from one or more requesters onto one
// logical Rambus channel.
type Controller struct {
	sched  *sim.Scheduler
	ch     *channel.Channel
	mapper addrmap.Mapper

	// queues[sys] holds requester sys's queues, indexed by queue class.
	queues [][numQueues][]*Request
	// queued counts the requests waiting in each queue class, summed
	// over requesters.
	queued [numQueues]int
	// rr[q] is the next requester considered for queue class q.
	rr     [numQueues]int
	source PrefetchSource

	// gate is the earliest time the next issue decision may be made:
	// the previous access's last command packet placement.
	gate sim.Time
	// armed tracks whether a decision event is scheduled.
	armed bool
	// prefetchInFlight is the completion time of the last prefetch
	// issued, used to detect demand misses arriving mid-prefetch.
	prefetchInFlight sim.Time

	// policy picks which queued demand or writeback issues next. FCFS
	// (the default) is the paper's strict in-order issue (Section 5);
	// FRFCFS variants implement the "reordering demand misses and
	// writebacks" extension from its future work (Section 6).
	policy IssuePolicy
	// rowOpenFn is the pre-bound open-row probe handed to the policy,
	// bound once so the hot path allocates no closures.
	rowOpenFn func(*Request) bool

	// completeCB is the pre-bound last-data callback (see
	// sim.Callback), bound once at construction so completion
	// scheduling costs no allocation; its payload is the *Request.
	completeCB sim.Callback

	// spans is the reused buffer decide decomposes each transfer into.
	spans []addrmap.Span

	// pending, when tracking is enabled, counts queued plus in-flight
	// transfers per block address so the paranoid invariant checker can
	// verify that every MSHR entry has a live transfer behind it. nil
	// unless EnableTracking was called; the hot path pays nothing by
	// default.
	pending map[uint64]int

	stats  Stats
	shares []ShareStats

	// Observability hooks (see Observe); nil-safe when observability
	// is off.
	tr        *obs.Tracer
	group     int
	demandLat *obs.Histogram
}

// New wires a private controller, serving a single requester, to a
// channel and address mapping.
func New(sched *sim.Scheduler, ch *channel.Channel, mapper addrmap.Mapper) *Controller {
	return NewShared(sched, ch, mapper, 1)
}

// NewShared wires a controller serving requesters requesters (at least
// one) to a channel and address mapping. A request names its
// requester in Request.Sys.
func NewShared(sched *sim.Scheduler, ch *channel.Channel, mapper addrmap.Mapper, requesters int) *Controller {
	c := &Controller{
		sched:  sched,
		ch:     ch,
		mapper: mapper,
		policy: FCFS{},
		queues: make([][numQueues][]*Request, requesters),
		shares: make([]ShareStats, requesters),
	}
	c.completeCB = func(at sim.Time, arg any) { c.complete(at, arg.(*Request)) }
	c.rowOpenFn = func(r *Request) bool { return c.ch.RowOpen(c.mapper.Map(r.Addr)) }
	return c
}

// SetPrefetchSource registers the prefetch engine hook. A nil source
// disables prefetching.
func (c *Controller) SetPrefetchSource(s PrefetchSource) { c.source = s }

// SetPolicy installs the issue policy; nil restores the paper's
// strict in-order FCFS.
func (c *Controller) SetPolicy(p IssuePolicy) {
	if p == nil {
		p = FCFS{}
	}
	c.policy = p
}

// Policy reports the installed issue policy.
func (c *Controller) Policy() IssuePolicy { return c.policy }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Share reports requester sys's share of the channel.
func (c *Controller) Share(sys int) ShareStats { return c.shares[sys] }

// Channel exposes the attached channel (for bank-state queries and
// utilization statistics).
func (c *Controller) Channel() *channel.Channel { return c.ch }

// EnableTracking turns on per-address accounting of queued and
// in-flight transfers, the substrate of the paranoid invariant
// "every MSHR entry has a live transfer". Off by default.
func (c *Controller) EnableTracking() {
	if c.pending == nil {
		c.pending = make(map[uint64]int)
	}
}

// HasPending reports whether the address has a queued or in-flight
// transfer. Only meaningful after EnableTracking.
func (c *Controller) HasPending(addr uint64) bool { return c.pending[addr] > 0 }

// track registers r's transfer in the pending table when tracking is
// on. The completion releases the registration strictly after
// OnComplete runs, so observers between events never see an MSHR
// entry outlive its transfer accounting.
func (c *Controller) track(r *Request) {
	if c.pending != nil {
		c.pending[r.Addr]++
		r.tracked = true
	}
}

// complete is the last-data event: OnComplete, then the tracking
// release, then the owner's release. It is scheduled for every
// request something waits on, so it always runs after OnFirstData.
func (c *Controller) complete(at sim.Time, r *Request) {
	if r.OnComplete != nil {
		r.OnComplete(at)
	}
	if r.tracked {
		r.tracked = false
		if c.pending[r.Addr]--; c.pending[r.Addr] <= 0 {
			delete(c.pending, r.Addr)
		}
	}
	r.release()
}

// DebugState summarizes the controller for diagnostic dumps.
func (c *Controller) DebugState(now sim.Time) string {
	s := fmt.Sprintf("demand=%d writebacks=%d armed=%v gate=now%+v issued=%v",
		c.queued[demandQ], c.queued[writebackQ], c.armed, c.gate-now, c.stats.Issued)
	if c.pending != nil {
		s += fmt.Sprintf(" tracked=%d", len(c.pending))
	}
	return s
}

// Pending reports whether any request is queued or a decision event is
// armed (used by run loops to detect quiescence).
func (c *Controller) Pending() bool {
	return c.queued[demandQ] > 0 || c.queued[writebackQ] > 0 || c.armed
}

// Submit enqueues a request on its requester's queues. Demand and (in
// the unscheduled-prefetch configuration) prefetch requests share the
// in-order demand queue; writebacks wait in their own lower-priority
// queue. A request from an unknown requester panics.
func (c *Controller) Submit(r *Request) {
	if int(r.Sys) >= len(c.queues) {
		panic(fmt.Sprintf("memctrl: request from unknown requester %d (have %d)", r.Sys, len(c.queues)))
	}
	now := c.sched.Now()
	r.submitted = now
	c.track(r)
	if r.Class == channel.Demand && now < c.prefetchInFlight {
		c.tr.Instant(obs.EvDemandBypass, c.group, r.Addr, 0)
		c.stats.PrefetchesBehindDemand++
	}
	qc := queueOf(r.Class)
	q := &c.queues[r.Sys]
	q[qc] = append(q[qc], r)
	c.queued[qc]++
	if qc == demandQ && c.queued[demandQ] > c.stats.MaxDemandQueue {
		c.stats.MaxDemandQueue = c.queued[demandQ]
	}
	sh := &c.shares[r.Sys]
	if depth := len(q[demandQ]) + len(q[writebackQ]); depth > sh.MaxQueue {
		sh.MaxQueue = depth
	}
	c.arm()
}

// Kick nudges an idle controller to re-evaluate its prefetch source,
// e.g. after a new region enters the prefetch queue.
func (c *Controller) Kick() { c.arm() }

// arm schedules a decision at the gate time if one is not already
// scheduled.
func (c *Controller) arm() {
	if c.armed {
		return
	}
	c.armed = true
	c.sched.AtCall(c.gate, fireDecide, c)
}

// decide is the access prioritizer: demand misses first, then
// writebacks, then — only on an idle channel — a prefetch.
func (c *Controller) decide() {
	c.armed = false
	now := c.sched.Now()

	r := c.grant()
	if r == nil {
		if c.source == nil {
			return
		}
		// Prefetch when the channel would otherwise go idle: no demand
		// miss or writeback is pending at this decision point. Prefetch
		// commands pipeline back to back, so prefetching can drive the
		// channel to full utilization (swim reaches 96% command-channel
		// utilization in Section 4.4); a demand miss arriving mid-
		// prefetch waits only for the current access's command packets.
		pr, ok := c.source.NextPrefetch(now)
		if !ok {
			return
		}
		r = pr
		r.submitted = now
		c.tr.Instant(obs.EvPrefetchIssue, c.group, r.Addr, 0)
		c.track(r)
	}

	c.spans = addrmap.AppendSpans(c.spans[:0], c.mapper, r.Addr, r.Size)
	res := c.ch.Access(now, c.spans, r.Class, r.Write)
	c.stats.Issued[r.Class]++
	sh := &c.shares[r.Sys]
	sh.Issued[r.Class]++
	sh.DataTime += res.DataTime
	sh.QueueWait += now - r.submitted
	if r.Class == channel.Demand {
		c.stats.DemandLatency += res.FirstData - r.submitted
		c.stats.DemandQueueWait += now - r.submitted
		c.demandLat.Observe(float64(res.FirstData-r.submitted) / float64(sim.Nanosecond))
	}
	if r.Class == channel.Prefetch && res.LastData > c.prefetchInFlight {
		c.prefetchInFlight = res.LastData
	}
	// The request's last event releases it: the last-data event when
	// anything waits on the transfer, else this issue.
	if r.OnFirstData != nil {
		c.sched.AtCall(res.FirstData, fireFirstData, r)
	}
	if r.OnFirstData != nil || r.OnComplete != nil || r.tracked {
		c.sched.AtCall(res.LastData, c.completeCB, r)
	} else {
		r.release()
	}

	// The next decision may be made once this access's command packets
	// have all been placed.
	c.gate = res.CmdDone
	if c.queued[demandQ] > 0 || c.queued[writebackQ] > 0 || c.source != nil {
		c.arm()
	}
}

// fireDecide is the decision dispatcher: the event payload is the
// *Controller, so arming allocates nothing.
func fireDecide(_ sim.Time, arg any) { arg.(*Controller).decide() }

// fireFirstData is the first-data dispatcher: the scheduled event
// carries the *Request as its payload, so scheduling allocates
// nothing. The fire time equals the scheduled channel-result time
// (Access never returns past times), matching the timestamp the
// callback was promised.
func fireFirstData(at sim.Time, arg any) { arg.(*Request).OnFirstData(at) }

// grant takes the next queued request: the highest-priority non-empty
// queue class, in it the first requester with work at or after the
// class's round-robin cursor, and in that requester's queue the issue
// policy's pick. The cursor then moves past the granted requester, so
// persistent contenders alternate instead of the lowest index winning
// every slot.
func (c *Controller) grant() *Request {
	n := len(c.queues)
	for qc := range c.rr {
		if c.queued[qc] == 0 {
			continue
		}
		// Some requester has work in this class, so the scan stops.
		sys := c.rr[qc]
		for len(c.queues[sys][qc]) == 0 {
			if sys++; sys == n {
				sys = 0
			}
		}
		if c.rr[qc] = sys + 1; c.rr[qc] == n {
			c.rr[qc] = 0
		}
		c.queued[qc]--
		return c.pop(&c.queues[sys][qc])
	}
	return nil
}

// pop removes and returns the next request from the queue as chosen by
// the issue policy. With a single queued request the policy is not
// consulted — every policy would pick it, and the uncontested case is
// the hot path.
func (c *Controller) pop(q *[]*Request) *Request {
	idx := 0
	if len(*q) > 1 {
		idx = c.policy.Pick(*q, c.rowOpenFn)
		if idx > 0 {
			c.stats.Reordered++
		}
	}
	r := (*q)[idx]
	copy((*q)[idx:], (*q)[idx+1:])
	*q = (*q)[:len(*q)-1]
	return r
}
