package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

// newRef builds a core that runs refCycle in place of cycle: the core
// as it was before it parked refused accesses and dispatched plain
// instructions as runs. It retries the oldest blocked access every
// cycle, pulls one instruction at a time and writes every field of
// every slot it fills. Everything else is the production code.
func newRef(sched *sim.Scheduler, mem Memory, gen trace.Generator, cfg Config) *CPU {
	c := &CPU{cfg: cfg, sched: sched, mem: mem, gen: gen, rob: make([]entry, cfg.ROBSize)}
	for i := range c.rob {
		e := &c.rob[i]
		e.loadDone = func(at sim.Time) { c.completeLoad(e, at) }
	}
	c.stepCB = func(sim.Time, any) { refStep(c) }
	c.issueCB = func(_ sim.Time, arg any) { c.issueLoad(arg.(*entry)) }
	c.releaseCB = func(_ sim.Time, arg any) {
		c.issueLoad(arg.(*entry))
		c.Wake()
	}
	c.Wake()
	return c
}

func refStep(c *CPU) {
	c.stepArmed = false
	for !c.finished {
		at, more := refCycle(c)
		if !more {
			return
		}
		if !c.sched.Advance(at) {
			c.armAt(at)
			return
		}
	}
}

// refNextInstr pulls the next instruction from the stream. It returns
// (op, true) for a memory operation, (zero, false) for a plain
// instruction, and sets c.exhausted at end of stream or budget.
func refNextInstr(c *CPU) (trace.Op, bool, bool) {
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
	return refNextInstr(c)
}

func refCycle(c *CPU) (at sim.Time, more bool) {
	now := c.sched.Now()
	period := c.cfg.Clock.Period()

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

	for c.blocked.n > 0 && c.tryIssue(c.blocked.front()) {
		c.blocked.pop()
	}

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
		op, isMem, ok := refNextInstr(c)
		if !ok {
			break
		}
		seq := c.dispatched
		c.dispatched++
		slot := wrap(c.head+c.count, c.cfg.ROBSize)
		e := &c.rob[slot]
		e.doneAt, e.addr, e.kind, e.dependsOnPrev, e.dependent = now+period, op.Addr, op.Kind, op.DependsOnPrev, nil
		c.count++
		if isMem {
			switch op.Kind {
			case trace.Load:
				e.doneAt = sim.MaxTime
				prodSeq, prodSlot := c.lastLoad, c.lastLoadSlot
				c.lastLoad, c.lastLoadSlot = seq+1, slot
				var prod *entry
				if op.DependsOnPrev && prodSeq > c.stats.Retired {
					prod = &c.rob[prodSlot]
				}
				switch {
				case prod == nil || prod.doneAt <= now:
					c.issueLoad(e)
				case prod.doneAt == sim.MaxTime:
					prod.dependent = e
				default:
					c.sched.AtCall(prod.doneAt, c.issueCB, e)
				}
			case trace.Store:
				c.issue(blockedOp{op: op})
			case trace.SWPrefetch:
				if c.blocked.n > 0 || !c.tryIssue(blockedOp{op: op}) {
					c.stats.DroppedPrefetches++
				}
			}
		}
	}

	if c.exhausted && c.count == 0 {
		c.finished = true
		c.finishAt = now
		if c.OnDone != nil {
			c.OnDone()
		}
		return 0, false
	}

	next := now + period
	canDispatch := !c.exhausted && c.count < c.cfg.ROBSize && c.blocked.n < c.cfg.StoreBuffer
	canRetire := c.count > 0 && c.rob[c.head].doneAt <= next
	switch {
	case canDispatch || canRetire:
		return next, true
	case c.count > 0 && c.rob[c.head].doneAt < sim.MaxTime:
		return c.cfg.Clock.NextEdge(c.rob[c.head].doneAt), true
	}
	return 0, false
}

// randMemory is a randomized hierarchy with the refusal contract of
// the real one. Blocks with bit 0x100 set hit after a random few
// cycles. Any other block merges into its fill in flight, or needs one
// of mshrs fill slots, and is refused, without touching any state,
// while all are held. A demand fill returns its first data before the
// full line, and may start a hardware prefetch of a pool block, which
// enters flight later without holding a slot. Delivering a fill
// unparks and wakes the core; a prefetch entering flight only unparks
// it. unpark is the core's Unpark, or nothing for the reference core,
// which never parks. The random draws happen only on accepted accesses
// and in the memory's own events, so two cores that behave alike see
// the same memory.
type randMemory struct {
	sched   *sim.Scheduler
	rng     *rand.Rand
	core    *CPU
	unpark  func()
	pool    []uint64
	mshrs   int
	held    int
	fills   map[uint64]*randFill
	log     []string
	refused int
}

type randFill struct {
	prefetch bool
	waiters  []func(sim.Time)
}

func (m *randMemory) Access(addr uint64, kind trace.Kind, complete func(sim.Time)) Reply {
	now := m.sched.Now()
	block := addr &^ 63
	f := m.fills[block]
	if addr&0x100 == 0 && f == nil && m.held >= m.mshrs {
		m.refused++
		return Reply{}
	}
	m.log = append(m.log, fmt.Sprintf("%v %v %#x", now, kind, addr))
	switch {
	case addr&0x100 != 0:
		return Reply{Accepted: true, Done: true, At: now + testClock.Cycles(1+m.rng.Int63n(6))}
	case kind == trace.SWPrefetch:
		if f == nil {
			m.startFill(block, false)
		}
		return Reply{Accepted: true, Done: true, At: now + testClock.Period()}
	case f == nil:
		f = m.startFill(block, false)
	}
	if complete != nil {
		f.waiters = append(f.waiters, complete)
	}
	return Reply{Accepted: true}
}

// startFill puts a fill for block in flight.
func (m *randMemory) startFill(block uint64, prefetch bool) *randFill {
	f := &randFill{prefetch: prefetch}
	m.fills[block] = f
	if !prefetch {
		m.held++
	}
	full := sim.Time(20+m.rng.Int63n(180)) * sim.Nanosecond
	if !prefetch && m.rng.Intn(2) == 0 {
		m.sched.ScheduleCall(full/2, func(now sim.Time, _ any) { m.firstData(f, now) }, nil)
	}
	m.sched.ScheduleCall(full, func(now sim.Time, _ any) { m.deliver(block, f, now) }, nil)
	if !prefetch && m.rng.Intn(3) == 0 {
		pb := m.pool[m.rng.Intn(len(m.pool))] &^ 63
		m.sched.ScheduleCall(sim.Time(m.rng.Int63n(60))*sim.Nanosecond, func(sim.Time, any) {
			if pb&0x100 == 0 && m.fills[pb] == nil {
				m.startFill(pb, true)
				m.unpark()
			}
		}, nil)
	}
	return f
}

// firstData completes the loads merged so far; later merges wait for
// the full line.
func (m *randMemory) firstData(f *randFill, now sim.Time) {
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		w(now)
	}
}

func (m *randMemory) deliver(block uint64, f *randFill, now sim.Time) {
	delete(m.fills, block)
	if !f.prefetch {
		m.held--
	}
	m.unpark()
	for _, w := range f.waiters {
		w(now)
	}
	m.core.Wake()
}

// randProgram draws a random op stream over a small pool of blocks, so
// accesses often merge into fills and prefetches in flight.
func randProgram(rng *rand.Rand, pool []uint64) []trace.Op {
	ops := make([]trace.Op, 50+rng.Intn(600))
	for i := range ops {
		op := &ops[i]
		op.NonMem = rng.Intn(8)
		if rng.Intn(10) == 0 {
			op.NonMem = rng.Intn(60)
		}
		op.Addr = pool[rng.Intn(len(pool))] + uint64(rng.Intn(8))*8
		switch r := rng.Intn(20); {
		case r < 11:
			op.Kind = trace.Load
			op.DependsOnPrev = rng.Intn(5) < 2
		case r < 17:
			op.Kind = trace.Store
		default:
			op.Kind = trace.SWPrefetch
		}
	}
	return ops
}

// coreRun is what one core did over a program.
type coreRun struct {
	accesses   []string
	retires    []string // "time retired" at the end of each cycle that retires
	finish     sim.Time
	events     uint64
	retired    uint64
	dropped    uint64
	refused    int
	dispatched uint64
}

func runCore(t *testing.T, seed int64, ops []trace.Op, pool []uint64, mshrs int, cfg Config, reference bool) coreRun {
	t.Helper()
	s := sim.NewScheduler()
	m := &randMemory{sched: s, rng: rand.New(rand.NewSource(seed)), pool: pool, mshrs: mshrs, fills: map[uint64]*randFill{}}
	var c *CPU
	if reference {
		c, m.unpark = newRef(s, m, trace.NewSlice(ops), cfg), func() {}
	} else {
		var err error
		if c, err = New(s, m, trace.NewSlice(ops), cfg); err != nil {
			t.Fatal(err)
		}
		m.unpark = c.Unpark
	}
	m.core = c
	var run coreRun
	var milestone func()
	milestone = func() {
		run.retires = append(run.retires, fmt.Sprintf("%v %d", s.Now(), c.stats.Retired))
		c.Milestone, c.OnMilestone = c.stats.Retired+1, milestone
	}
	c.Milestone, c.OnMilestone = 1, milestone
	s.RunWhile(func() bool { return !c.Done() })
	if !c.Done() {
		t.Fatalf("seed %d: core deadlocked: %s", seed, c.DebugState())
	}
	run.accesses, run.finish, run.events = m.log, c.FinishTime(), s.EventsFired()
	run.retired, run.dropped, run.refused, run.dispatched = c.stats.Retired, c.stats.DroppedPrefetches, m.refused, c.dispatched
	return run
}

// TestCoreMatchesReference drives the production core and the
// reference core (refCycle) with the same random programs, core shapes
// and random memories, and requires the same accesses at the same
// times, the same retirements per cycle, the same finish time and the
// same number of fired events. The production core must also make
// fewer refused tries: parking is engaged, not merely harmless.
func TestCoreMatchesReference(t *testing.T) {
	refusedProd, refusedRef := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]uint64, 4+rng.Intn(24))
		for i := range pool {
			pool[i] = uint64(1+i)<<12 | uint64(rng.Intn(2))<<8
		}
		ops := randProgram(rng, pool)
		width := 1 + rng.Intn(8)
		cfg := Config{
			Width:       width,
			ROBSize:     1 + rng.Intn(80),
			StoreBuffer: 1 + rng.Intn(12),
			Clock:       testClock,
		}
		if rng.Intn(2) == 0 {
			cfg.SustainedIPC = 0.1 + rng.Float64()*float64(width)
		}
		if rng.Intn(3) == 0 {
			cfg.MaxInstrs = uint64(1 + rng.Intn(3000))
		}
		mshrs := 1 + rng.Intn(6)
		prod := runCore(t, seed, ops, pool, mshrs, cfg, false)
		ref := runCore(t, seed, ops, pool, mshrs, cfg, true)
		if !slices.Equal(prod.accesses, ref.accesses) {
			t.Fatalf("seed %d (%+v): access logs differ at %d:\n%s", seed, cfg, firstDiff(prod.accesses, ref.accesses), diffWindow(prod.accesses, ref.accesses))
		}
		if !slices.Equal(prod.retires, ref.retires) {
			t.Fatalf("seed %d (%+v): retirements differ at %d:\n%s", seed, cfg, firstDiff(prod.retires, ref.retires), diffWindow(prod.retires, ref.retires))
		}
		if prod.finish != ref.finish || prod.events != ref.events || prod.retired != ref.retired ||
			prod.dropped != ref.dropped || prod.dispatched != ref.dispatched {
			t.Fatalf("seed %d (%+v): finish %v/%v events %d/%d retired %d/%d dropped %d/%d dispatched %d/%d (production/reference)",
				seed, cfg, prod.finish, ref.finish, prod.events, ref.events, prod.retired, ref.retired,
				prod.dropped, ref.dropped, prod.dispatched, ref.dispatched)
		}
		refusedProd += prod.refused
		refusedRef += ref.refused
	}
	if refusedProd >= refusedRef {
		t.Fatalf("production core made %d refused tries, reference %d: parking skipped none", refusedProd, refusedRef)
	}
	t.Logf("refused tries: production %d, reference %d", refusedProd, refusedRef)
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// diffWindow shows both logs around their first difference.
func diffWindow(a, b []string) string {
	i := firstDiff(a, b)
	lo := max(0, i-3)
	return fmt.Sprintf("production: %q\nreference:  %q", a[lo:min(len(a), i+3)], b[lo:min(len(b), i+3)])
}
