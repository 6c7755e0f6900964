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
package cpu

import (
	"fmt"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

// Reply is the memory hierarchy's synchronous answer to an access.
type Reply struct {
	// Accepted is false when the hierarchy cannot take the access now
	// (MSHRs full); the core must retry after Wake.
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
	Retired    uint64
	Loads      uint64
	Stores     uint64
	Prefetches uint64 // software prefetch instructions
	// DroppedPrefetches counts software prefetches discarded because
	// the hierarchy was saturated.
	DroppedPrefetches uint64
}

// entry is one in-flight instruction: a slot of the ROB ring. Slots
// never move, so a *entry stays valid for as long as its instruction
// is in the window; once the instruction retires, the next dispatch
// into the slot reuses it.
type entry struct {
	doneAt sim.Time // sim.MaxTime while pending
	op     trace.Op
	// dependent is the dependence-deferred load waiting on this load's
	// data, if any. A load depends only on the load dispatched just
	// before it, so at most one can wait.
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
	// the hierarchy (MSHRs full), in issue order.
	blocked opQueue

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
	c.armStep(0)
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

// IPC reports retired instructions per cycle so far.
func (c *CPU) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.stats.Retired) / float64(cy)
}

// DebugState summarizes internal progress state for deadlock
// diagnostics.
func (c *CPU) DebugState() string {
	head := "empty"
	if c.count > 0 {
		e := &c.rob[c.head]
		head = fmt.Sprintf("kind=%v addr=%#x doneAt=%v dep=%v deferredDep=%v",
			e.op.Kind, e.op.Addr, e.doneAt, e.op.DependsOnPrev, e.dependent != nil)
	}
	return fmt.Sprintf("count=%d blocked=%d exhausted=%v dispatched=%d stepArmed=%v head{%s}",
		c.count, c.blocked.n, c.exhausted, c.dispatched, c.stepArmed, head)
}

// Wake nudges a stalled core, e.g. after the hierarchy frees an MSHR.
func (c *CPU) Wake() {
	if !c.finished {
		c.armStep(0)
	}
}

// armStep schedules a step at the next cycle edge at or after
// now+delay, if one is not already scheduled.
func (c *CPU) armStep(delay sim.Time) {
	if c.stepArmed {
		return
	}
	c.stepArmed = true
	at := c.cfg.Clock.NextEdge(c.sched.Now() + delay)
	c.sched.AtCall(at, c.stepCB, nil)
}

// nextInstr pulls the next instruction from the stream. It returns
// (op, true) for a memory operation, (zero, false) for a plain
// instruction, and sets c.exhausted at end of stream or budget.
func (c *CPU) nextInstr() (trace.Op, bool, bool) {
	if c.cfg.MaxInstrs > 0 && c.dispatched >= c.cfg.MaxInstrs {
		c.exhausted = true
		return trace.Op{}, false, false
	}
	if c.nonMemLeft > 0 {
		c.nonMemLeft--
		return trace.Op{}, false, true
	}
	if c.haveOp {
		op := c.curOp
		c.haveOp = false
		return op, true, true
	}
	op, ok := c.gen.Next()
	if !ok {
		c.exhausted = true
		return trace.Op{}, false, false
	}
	c.nonMemLeft = op.NonMem
	c.curOp = op
	c.haveOp = true
	return c.nextInstr()
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
func (c *CPU) issueLoad(e *entry) { c.issue(blockedOp{op: e.op, load: e}) }

// issue sends a memory operation to the hierarchy, or parks it on the
// blocked queue when resources are exhausted.
func (c *CPU) issue(b blockedOp) {
	// Preserve issue order behind already-blocked accesses.
	if c.blocked.n > 0 || !c.tryIssue(b) {
		c.blocked.push(b)
	}
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

// step runs one core cycle: retire, retry blocked accesses, dispatch,
// and re-arm.
func (c *CPU) step() {
	c.stepArmed = false
	if c.finished {
		return
	}
	now := c.sched.Now()
	period := c.cfg.Clock.Period()

	// Retire up to Width completed instructions in order.
	for n := 0; n < c.cfg.Width && c.count > 0; n++ {
		if c.rob[c.head].doneAt > now {
			break
		}
		c.head = wrap(c.head+1, c.cfg.ROBSize)
		c.count--
		c.stats.Retired++
	}
	if c.OnMilestone != nil && c.stats.Retired >= c.Milestone {
		f := c.OnMilestone
		c.OnMilestone = nil
		f()
	}

	// Retry blocked accesses in order.
	for c.blocked.n > 0 && c.tryIssue(c.blocked.front()) {
		c.blocked.pop()
	}

	// Dispatch up to Width instructions, throttled by the sustained-IPC
	// credit pool when one is configured.
	limit := float64(c.cfg.Width)
	if c.cfg.SustainedIPC > 0 && c.cfg.SustainedIPC < limit {
		c.credits += c.cfg.SustainedIPC
		if c.credits > limit {
			c.credits = limit
		}
	} else {
		c.credits = limit
	}
	for n := 0; n < c.cfg.Width && c.credits >= 1 && c.count < c.cfg.ROBSize && !c.exhausted && c.blocked.n < c.cfg.StoreBuffer; n++ {
		c.credits--
		op, isMem, ok := c.nextInstr()
		if !ok {
			break
		}
		seq := c.dispatched
		c.dispatched++
		// Fill the tail slot field by field: loadDone stays bound.
		slot := wrap(c.head+c.count, c.cfg.ROBSize)
		e := &c.rob[slot]
		e.doneAt, e.op, e.dependent = now+period, op, nil
		c.count++
		if isMem {
			switch op.Kind {
			case trace.Load:
				c.stats.Loads++
				e.doneAt = sim.MaxTime
				prodSeq, prodSlot := c.lastLoad, c.lastLoadSlot
				c.lastLoad, c.lastLoadSlot = seq+1, slot
				// A retired producer's data has arrived; e may even
				// occupy its slot now.
				var prod *entry
				if op.DependsOnPrev && prodSeq > c.stats.Retired {
					prod = &c.rob[prodSlot]
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
				c.stats.Stores++
				c.issue(blockedOp{op: op})
			case trace.SWPrefetch:
				c.stats.Prefetches++
				// Prefetches are hints: drop rather than block.
				if c.blocked.n > 0 || !c.tryIssue(blockedOp{op: op}) {
					c.stats.DroppedPrefetches++
				}
			}
		}
	}

	// Finished?
	if c.exhausted && c.count == 0 {
		c.finished = true
		c.finishAt = now
		if c.OnDone != nil {
			c.OnDone()
		}
		return
	}

	// Re-arm: next cycle if progress is possible then; otherwise wait
	// for the head's known completion; otherwise idle until a callback
	// wakes us.
	next := now + period
	canDispatch := !c.exhausted && c.count < c.cfg.ROBSize && c.blocked.n < c.cfg.StoreBuffer
	canRetire := c.count > 0 && c.rob[c.head].doneAt <= next
	switch {
	case canDispatch || canRetire:
		c.armStep(period)
	case c.count > 0 && c.rob[c.head].doneAt < sim.MaxTime:
		c.armStep(c.rob[c.head].doneAt - now)
	}
}
