// Package cpu models the processing core as a trace-driven out-of-order
// window: a reorder buffer of fixed size, a fixed dispatch/retire
// width, and dependence-aware load issue.
//
// The model deliberately omits fetch, branch prediction, and functional
// units: for a memory-system study the core matters only as (a) a
// generator of overlapped memory accesses whose parallelism is bounded
// by the window and by load dependences, and (b) a consumer whose IPC
// degrades when retirement stalls on outstanding misses. Independent
// loads in the window overlap their misses (memory-level parallelism);
// a load marked dependent on its predecessor cannot issue until that
// load's data returns, which serializes pointer-chasing miss chains.
// Stores retire through a bounded store buffer without stalling
// retirement. This is the minimal structure that reproduces both
// latency-bound and bandwidth-bound behaviour.
//
// The core runs one cycle per activation, on a cycle edge. When a cycle
// wants another, the core asks the scheduler to Advance to that edge
// and runs it in the same callback; it queues a step only when another
// event is due first or a sampled-loop stride ends before it. A busy
// core thus costs one queued event per run of undisturbed cycles,
// while every cycle still counts as a fired event at the same time and
// in the same order as a queued step.
package cpu

import (
	"fmt"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

// Reply is the memory hierarchy's synchronous answer to an access.
type Reply struct {
	// Accepted is false when the hierarchy cannot take the access now
	// (MSHRs full). The core parks the access and retries it on its
	// first cycle after Unpark.
	Accepted bool
	// Done is true when the completion time is known immediately
	// (cache hit); At holds it. When false, the completion callback
	// passed to Access fires later.
	Done bool
	// At is the completion time when Done.
	At sim.Time
}

// Memory is the interface the core drives. Access initiates a memory
// operation at the current simulated time; complete (non-nil only for
// loads) is invoked when data arrives if the reply is not Done.
//
// A refusal must be a read-only decision that only the memory's own
// state changes can reverse, and the memory must call Unpark on each
// change that could let a refused access in (a freed resource, a block
// becoming present or fetched): a parked core does not retry before.
type Memory interface {
	Access(addr uint64, kind trace.Kind, complete func(sim.Time)) Reply
}

// Config parameterizes the core.
type Config struct {
	// Width is the dispatch and retire width per cycle.
	Width int
	// SustainedIPC, when positive and below Width, bounds average
	// dispatch throughput. It stands in for the instruction-level-
	// parallelism limits (dependence chains, functional-unit and fetch
	// constraints) that keep real codes well under the machine width;
	// without it every compute phase would run at exactly Width IPC.
	// Zero means no limit beyond Width.
	SustainedIPC float64
	// ROBSize is the instruction window (the paper's 64-entry RUU).
	ROBSize int
	// StoreBuffer bounds retired-but-unissued stores plus other
	// accesses awaiting MSHRs before dispatch stalls.
	StoreBuffer int
	// Clock is the core clock (1.6 GHz in the base system).
	Clock sim.Clock
	// MaxInstrs ends the run after this many dispatched instructions;
	// zero means run until the trace is exhausted.
	MaxInstrs uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("cpu: width %d invalid", c.Width)
	}
	if c.ROBSize <= 0 {
		return fmt.Errorf("cpu: ROB size %d invalid", c.ROBSize)
	}
	if c.StoreBuffer <= 0 {
		return fmt.Errorf("cpu: store buffer %d invalid", c.StoreBuffer)
	}
	if c.SustainedIPC < 0 {
		return fmt.Errorf("cpu: sustained IPC %v invalid", c.SustainedIPC)
	}
	if c.Clock.Period() <= 0 {
		return fmt.Errorf("cpu: clock not set")
	}
	return nil
}

// Stats counts core activity.
type Stats struct {
	Retired uint64
	// DroppedPrefetches counts software prefetches discarded because
	// the hierarchy was saturated.
	DroppedPrefetches uint64
}

// entry is one in-flight instruction: a slot of the ROB ring. Slots
// never move, so a *entry stays valid for as long as its instruction
// is in the window; once the instruction retires, the next dispatch
// into the slot reuses it. A plain instruction writes only doneAt, so
// the other fields may be stale: the op fields describe the slot's
// instruction only while opSeq matches its sequence number.
type entry struct {
	doneAt sim.Time // sim.MaxTime while pending
	// The memory op in the slot: its address, kind and dependence flag,
	// and one plus its dispatch sequence number.
	addr          uint64
	opSeq         uint64
	kind          trace.Kind
	dependsOnPrev bool
	// dependent is the dependence-deferred load waiting on this load's
	// data, if any. A load depends only on the load dispatched just
	// before it, so at most one can wait; it is released before the
	// load can retire, so a slot leaves the window with none.
	dependent *entry
	// loadDone is the slot's completion callback for loads, bound once
	// in New: a load cannot retire before its data arrives, so the
	// slot still holds it when the hierarchy fires the callback.
	loadDone func(sim.Time)
}

// blockedOp is an access accepted into the window but refused by the
// hierarchy. A load keeps its ROB slot (it cannot retire before its
// data arrives); a store carries only its op, because it retires
// while still blocked and its slot may be reused before the retry.
type blockedOp struct {
	op   trace.Op
	load *entry // nil for stores
}

// opQueue is a FIFO ring of blocked accesses. It grows by doubling and
// never shrinks, so a warmed core queues without allocating.
type opQueue struct {
	buf     []blockedOp
	head, n int
}

func (q *opQueue) push(b blockedOp) {
	if q.n == len(q.buf) {
		grown := make([]blockedOp, max(2*len(q.buf), 8))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[wrap(q.head+q.n, len(q.buf))] = b
	q.n++
}

// wrap reduces a ring index in [0, 2n) into [0, n) without dividing.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// front returns the oldest blocked access; the queue must be non-empty.
func (q *opQueue) front() blockedOp { return q.buf[q.head] }

func (q *opQueue) pop() {
	q.buf[q.head] = blockedOp{}
	q.head = wrap(q.head+1, len(q.buf))
	q.n--
}

// CPU is the core model. Create with New; it schedules itself on the
// shared Scheduler and reports completion through the Done callback.
type CPU struct {
	cfg   Config
	sched *sim.Scheduler
	mem   Memory
	gen   trace.Generator

	// Reorder buffer: a ring of entries, oldest at head. The
	// instruction with dispatch sequence number n lives in slot
	// n%ROBSize.
	rob   []entry
	head  int
	count int

	// blocked holds accesses accepted into the window but refused by
	// the hierarchy (MSHRs full), in issue order. parked is set when
	// the front was refused and the hierarchy has not called Unpark
	// since: a retry would be refused again, so cycles skip it.
	blocked opQueue
	parked  bool

	// lastLoad is one plus the dispatch sequence number of the most
	// recent load, for dependence chaining; zero before the first. A
	// load whose sequence number is below stats.Retired has retired,
	// so its data has arrived. lastLoadSlot is that load's ROB slot.
	lastLoad     uint64
	lastLoadSlot int

	// Instruction stream state.
	nonMemLeft int
	curOp      trace.Op
	haveOp     bool
	exhausted  bool
	dispatched uint64

	stepArmed bool
	finished  bool
	finishAt  sim.Time

	// Pre-bound scheduler callbacks (see sim.Callback): bound once at
	// construction so the per-event hot paths schedule without
	// allocating a closure.
	stepCB    sim.Callback
	issueCB   sim.Callback // arg: *entry, a deferred load to issue
	releaseCB sim.Callback // arg: *entry, a deferred dependent to issue

	// credits implements the SustainedIPC dispatch limiter: each cycle
	// adds SustainedIPC credits (capped at Width) and each dispatched
	// instruction consumes one.
	credits float64

	// OnDone, if set, fires once when the core retires its last
	// instruction.
	OnDone func()

	// Milestone and OnMilestone implement measurement warmup: the
	// callback fires once, at the end of the first cycle in which
	// retired instructions reach Milestone.
	Milestone   uint64
	OnMilestone func()

	stats Stats
}

// New builds a core over the scheduler, memory, and instruction stream,
// and arms it to begin executing at time zero.
func New(sched *sim.Scheduler, mem Memory, gen trace.Generator, cfg Config) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:   cfg,
		sched: sched,
		mem:   mem,
		gen:   gen,
		rob:   make([]entry, cfg.ROBSize),
	}
	for i := range c.rob {
		e := &c.rob[i]
		e.loadDone = func(at sim.Time) { c.completeLoad(e, at) }
	}
	c.stepCB = func(sim.Time, any) { c.step() }
	c.issueCB = func(_ sim.Time, arg any) { c.issueLoad(arg.(*entry)) }
	c.releaseCB = func(_ sim.Time, arg any) {
		c.issueLoad(arg.(*entry))
		c.Wake()
	}
	c.Wake()
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *CPU) Stats() Stats { return c.stats }

// Done reports whether the core has retired its final instruction.
func (c *CPU) Done() bool { return c.finished }

// FinishTime reports when the final instruction retired; valid only
// once Done.
func (c *CPU) FinishTime() sim.Time { return c.finishAt }

// Cycles reports the executed cycle count (through the finish time once
// done, else through now).
func (c *CPU) Cycles() int64 {
	t := c.sched.Now()
	if c.finished {
		t = c.finishAt
	}
	return c.cfg.Clock.ToCyclesCeil(t)
}

// DebugState summarizes internal progress state for deadlock
// diagnostics.
func (c *CPU) DebugState() string {
	head := "empty"
	if c.count > 0 {
		// The head's sequence number is the retired count.
		e := &c.rob[c.head]
		switch {
		case e.opSeq != c.stats.Retired+1:
			head = fmt.Sprintf("kind=plain doneAt=%v", e.doneAt)
		case e.kind == trace.Load:
			head = fmt.Sprintf("kind=%v addr=%#x doneAt=%v dep=%v deferredDep=%v",
				e.kind, e.addr, e.doneAt, e.dependsOnPrev, e.dependent != nil)
		default:
			head = fmt.Sprintf("kind=%v addr=%#x doneAt=%v", e.kind, e.addr, e.doneAt)
		}
	}
	return fmt.Sprintf("count=%d blocked=%d parked=%v exhausted=%v dispatched=%d stepArmed=%v head{%s}",
		c.count, c.blocked.n, c.parked, c.exhausted, c.dispatched, c.stepArmed, head)
}

// Wake nudges a stalled core, e.g. after the hierarchy frees an MSHR.
// A core with a step already armed needs no nudge, so it returns before
// computing the next edge. Wake does not unpark a refused access: the
// memory calls Unpark for that.
func (c *CPU) Wake() {
	if !c.finished && !c.stepArmed {
		c.armAt(c.cfg.Clock.NextEdge(c.sched.Now()))
	}
}

// Unpark tells the core that the hierarchy changed in a way that could
// let its oldest refused access in. The core retries it on its next
// cycle; Unpark arms no step, so a core idling until Wake keeps idling.
func (c *CPU) Unpark() { c.parked = false }

// Parked reports the address of the refused access the core is parked
// on, if any. Paranoid checks use it to assert that the hierarchy would
// still refuse it.
func (c *CPU) Parked() (addr uint64, ok bool) {
	if !c.parked {
		return 0, false
	}
	return c.blocked.front().op.Addr, true
}

// armAt schedules a step at cycle edge t, if one is not already
// scheduled.
func (c *CPU) armAt(t sim.Time) {
	if c.stepArmed {
		return
	}
	c.stepArmed = true
	c.sched.AtCall(t, c.stepCB, nil)
}

// completeLoad records a load's data arrival and releases its
// dependent.
func (c *CPU) completeLoad(e *entry, at sim.Time) {
	e.doneAt = at
	if d := e.dependent; d != nil {
		e.dependent = nil
		c.issueLoad(d)
	}
	c.Wake()
}

// issueLoad issues the load in slot e.
func (c *CPU) issueLoad(e *entry) {
	c.issue(blockedOp{op: trace.Op{Addr: e.addr, Kind: trace.Load}, load: e})
}

// issue sends a memory operation to the hierarchy, or queues it on the
// blocked queue when resources are exhausted, parking the core when it
// is the refused front.
func (c *CPU) issue(b blockedOp) {
	// Preserve issue order behind already-blocked accesses.
	if c.blocked.n == 0 {
		if c.tryIssue(b) {
			return
		}
		c.parked = true
	}
	c.blocked.push(b)
}

// tryIssue attempts the access; it reports false on resource rejection.
func (c *CPU) tryIssue(b blockedOp) bool {
	var complete func(sim.Time)
	if b.load != nil {
		complete = b.load.loadDone
	}
	rep := c.mem.Access(b.op.Addr, b.op.Kind, complete)
	if !rep.Accepted {
		return false
	}
	if e := b.load; e != nil && rep.Done {
		e.doneAt = rep.At
		// A dependent may have been deferred while this load sat
		// deferred or blocked; release it when the data is available.
		if d := e.dependent; d != nil {
			e.dependent = nil
			c.sched.AtCall(rep.At, c.releaseCB, d)
		}
	}
	return true
}

// step runs core cycles from now on. After each cycle that wants
// another, it runs that cycle inline when the scheduler's Advance
// allows (nothing else is due first) and schedules it otherwise.
func (c *CPU) step() {
	c.stepArmed = false
	for !c.finished {
		at, more := c.cycle()
		if !more {
			return
		}
		if !c.sched.Advance(at) {
			c.armAt(at)
			return
		}
	}
}

// cycle runs one core cycle (retire, retry blocked accesses, dispatch)
// and reports the cycle edge at which the core next wants to run, or
// more=false when it has finished or idles until a callback wakes it.
func (c *CPU) cycle() (at sim.Time, more bool) {
	now := c.sched.Now()
	period := c.cfg.Clock.Period()
	width, robSize, storeBuffer := c.cfg.Width, c.cfg.ROBSize, c.cfg.StoreBuffer
	maxInstrs := c.cfg.MaxInstrs

	// Retire up to Width completed instructions in order.
	rob := c.rob
	head, count := c.head, c.count
	for n := 0; n < width && count > 0 && rob[head].doneAt <= now; n++ {
		head = wrap(head+1, robSize)
		count--
	}
	c.stats.Retired += uint64(c.count - count)
	c.head, c.count = head, count
	if c.OnMilestone != nil && c.stats.Retired >= c.Milestone {
		f := c.OnMilestone
		c.OnMilestone = nil
		f()
	}

	// Retry blocked accesses in order, unless the front is parked.
	for !c.parked && c.blocked.n > 0 {
		if !c.tryIssue(c.blocked.front()) {
			c.parked = true
			break
		}
		c.blocked.pop()
	}

	// Dispatch up to Width instructions, throttled by the sustained-IPC
	// credit pool when one is configured. Each trace op is a run of
	// NonMem plain instructions followed by its memory op; a run
	// dispatches in one step, spending one credit per instruction.
	// Credits stay within [0, Width], where subtracting a whole number
	// of them at once is exact: it leaves the same float as one
	// decrement per instruction.
	limit := float64(width)
	credits := limit
	if ipc := c.cfg.SustainedIPC; ipc > 0 && ipc < limit {
		credits = min(c.credits+ipc, limit)
	}
	for n := 0; n < width && credits >= 1 && c.count < robSize && !c.exhausted && c.blocked.n < storeBuffer; {
		if maxInstrs > 0 && c.dispatched >= maxInstrs {
			c.exhausted = true
			break
		}
		if c.nonMemLeft <= 0 && !c.haveOp {
			op, ok := c.gen.Next()
			if !ok {
				c.exhausted = true
				break
			}
			c.nonMemLeft, c.curOp, c.haveOp = op.NonMem, op, true
		}
		slot := wrap(c.head+c.count, robSize)
		if c.nonMemLeft > 0 {
			k := min(width-n, c.nonMemLeft, robSize-c.count, int(credits))
			if maxInstrs > 0 {
				k = int(min(uint64(k), maxInstrs-c.dispatched))
			}
			for range k {
				rob[slot].doneAt = now + period
				slot = wrap(slot+1, robSize)
			}
			credits -= float64(k)
			c.nonMemLeft -= k
			c.count += k
			c.dispatched += uint64(k)
			n += k
			continue
		}

		credits--
		n++
		op := c.curOp
		c.haveOp = false
		seq := c.dispatched
		c.dispatched++
		c.count++
		e := &rob[slot]
		e.doneAt, e.addr, e.opSeq, e.kind, e.dependsOnPrev = now+period, op.Addr, seq+1, op.Kind, op.DependsOnPrev
		switch op.Kind {
		case trace.Load:
			e.doneAt, e.dependent = sim.MaxTime, nil
			prodSeq, prodSlot := c.lastLoad, c.lastLoadSlot
			c.lastLoad, c.lastLoadSlot = seq+1, slot
			// A retired producer's data has arrived; e may even
			// occupy its slot now.
			var prod *entry
			if op.DependsOnPrev && prodSeq > c.stats.Retired {
				prod = &rob[prodSlot]
			}
			switch {
			case prod == nil || prod.doneAt <= now:
				c.issueLoad(e)
			case prod.doneAt == sim.MaxTime:
				// Producer data time unknown; issue on completion.
				prod.dependent = e
			default:
				// Producer completes at a known future time.
				c.sched.AtCall(prod.doneAt, c.issueCB, e)
			}
		case trace.Store:
			c.issue(blockedOp{op: op})
		case trace.SWPrefetch:
			// Prefetches are hints: drop rather than block.
			if c.blocked.n > 0 || !c.tryIssue(blockedOp{op: op}) {
				c.stats.DroppedPrefetches++
			}
		}
	}
	c.credits = credits

	// Finished?
	if c.exhausted && c.count == 0 {
		c.finished = true
		c.finishAt = now
		if c.OnDone != nil {
			c.OnDone()
		}
		return 0, false
	}

	// Next cycle if progress is possible then (steps run on cycle
	// edges, so now+period is one); otherwise the edge of the head's
	// known completion; otherwise idle until a callback wakes us.
	next := now + period
	canDispatch := !c.exhausted && c.count < robSize && c.blocked.n < storeBuffer
	canRetire := c.count > 0 && rob[c.head].doneAt <= next
	switch {
	case canDispatch || canRetire:
		return next, true
	case c.count > 0 && rob[c.head].doneAt < sim.MaxTime:
		return c.cfg.Clock.NextEdge(rob[c.head].doneAt), true
	}
	return 0, false
}
