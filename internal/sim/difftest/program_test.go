package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"memsim/internal/sim"
)

// scheduler is the surface a program drives: sim.Scheduler and the
// heap-ordered Reference both provide it.
type scheduler interface {
	ScheduleCall(delay sim.Time, cb sim.Callback, arg any)
	Advance(t sim.Time) bool
	Step() bool
	RunWhileSampled(cond func() bool, stride uint64, coarse func() bool)
	Run()
	Now() sim.Time
	EventsFired() uint64
	Pending() int
}

// OpKind enumerates the scheduler operations a program can perform.
type OpKind uint8

const (
	// OpScheduleCall queues an event at now+Delay.
	OpScheduleCall OpKind = iota
	// OpNested queues an event at now+Delay that, when it fires,
	// schedules a child at +Child.
	OpNested
	// OpStep executes the next pending event, if any.
	OpStep
	// OpRun fires Count events, fewer if the queue drains, through
	// RunWhileSampled: its stride, not its condition, stops the run,
	// so sim.Scheduler's Advance must decline at the stride's end.
	OpRun

	// numOpKinds counts the kinds Generate and GenerateSparse draw
	// from.
	numOpKinds

	// OpTicker starts a ticker at now+Delay: Count events, each Child
	// after the last, where each tick runs the next inline through
	// Advance when the scheduler allows and schedules it otherwise, as
	// the core steps. Only ticking programs carry it.
	OpTicker = numOpKinds
)

var opNames = [...]string{"call", "nested", "step", "run", "ticker"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one program step.
type Op struct {
	Kind  OpKind
	Delay sim.Time // relative delay for scheduling ops
	Child sim.Time // nested child's delay; a ticker's period
	Count int      // a ticker's or a run's event count
}

func (o Op) String() string {
	switch o.Kind {
	case OpNested:
		return fmt.Sprintf("{nested +%d child +%d}", int64(o.Delay), int64(o.Child))
	case OpStep:
		return "{step}"
	case OpRun:
		return fmt.Sprintf("{run x%d}", o.Count)
	case OpTicker:
		return fmt.Sprintf("{ticker +%d every +%d x%d}", int64(o.Delay), int64(o.Child), o.Count)
	default:
		return fmt.Sprintf("{%v +%d}", o.Kind, int64(o.Delay))
	}
}

// Program is a seeded scheduler workload: the ops are replayed in order
// against a fresh scheduler, then the queue is drained.
type Program struct {
	Seed int64
	Ops  []Op
}

// farEvery is how often Generate emits a far-future delay (seconds
// instead of nanoseconds), so near events keep arriving ahead of far
// ones already queued.
const farEvery = 31

// maxRun bounds the events one OpRun fires.
const maxRun = 8

// Generate derives a program of nops operations from seed. Generation
// is pure: the same seed always yields the same program.
func Generate(seed int64, nops int) Program {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, nops)
	for i := range ops {
		op := Op{
			Kind:  OpKind(rng.Intn(int(numOpKinds))),
			Delay: sim.Time(rng.Intn(5000)), // several core cycles
			Child: sim.Time(rng.Intn(2000)),
			Count: 1 + rng.Intn(maxRun),
		}
		// Same-tick bursts (zero delay) and far-future outliers are the
		// interesting corners; make both common.
		switch {
		case rng.Intn(8) == 0:
			op.Delay = 0
		case rng.Intn(farEvery) == 0:
			op.Delay = sim.Time(rng.Int63n(int64(3 * sim.Second)))
		}
		ops[i] = op
	}
	return Program{Seed: seed, Ops: ops}
}

// Sparse programs keep at most sparseMaxPending events queued, each
// scheduling delay and run-ahead between sparseMinGap and
// sparseMaxGap: a few events tens to hundreds of nanoseconds apart, as
// on a cluster's shared memory. With so few events, a schedule after a
// run often lands before the next event still queued.
const (
	sparseMaxPending = 4
	sparseMinGap     = 10 * sim.Nanosecond
	sparseMaxGap     = 500 * sim.Nanosecond
)

// GenerateSparse derives a sparse program of nops operations from
// seed. It tracks the pending count by replaying each op on a
// Reference as it goes, offering scheduling ops only while fewer than
// sparseMaxPending events are queued.
func GenerateSparse(seed int64, nops int) Program {
	rng := rand.New(rand.NewSource(seed))
	gap := func() sim.Time { return sparseMinGap + sim.Time(rng.Int63n(int64(sparseMaxGap-sparseMinGap)+1)) }
	x := newExec(&Reference{})
	ops := make([]Op, nops)
	for i := range ops {
		op := Op{Kind: OpKind(rng.Intn(int(numOpKinds))), Delay: gap(), Child: gap(), Count: 1 + rng.Intn(sparseMaxPending)}
		if x.s.Pending() >= sparseMaxPending && (op.Kind == OpScheduleCall || op.Kind == OpNested) {
			op.Kind = OpRun
		}
		x.apply(op)
		ops[i] = op
	}
	return Program{Seed: seed, Ops: ops}
}

// Deep programs keep about deepPending events queued, the depth a
// cluster whose members prefetch reaches at its tail (its fabric turns
// each member's prefetches into unscheduled FIFO requests). Scheduling
// ops place their events on deepTick multiples within deepSpread, so
// each timestamp is shared by several queued events, and runs are
// short, so a run or Step fires only a few of them and most pushes
// land mid-queue.
const (
	deepPending = 1_100
	deepSpread  = 100 * sim.Nanosecond
	deepTick    = 625 * sim.Picosecond
)

// GenerateDeep derives a deep program of nops operations from seed. It
// tracks the pending count by replaying each op on a Reference as it
// goes, turning every op into a schedule while fewer than deepPending
// events are queued.
func GenerateDeep(seed int64, nops int) Program {
	rng := rand.New(rand.NewSource(seed))
	tick := func() sim.Time { return sim.Time(rng.Int63n(int64(deepSpread/deepTick))) * deepTick }
	x := newExec(&Reference{})
	ops := make([]Op, nops)
	for i := range ops {
		op := Op{Kind: OpKind(rng.Intn(int(numOpKinds))), Delay: tick(), Child: tick(), Count: 1 + rng.Intn(maxRun)}
		if x.s.Pending() < deepPending && (op.Kind == OpStep || op.Kind == OpRun) {
			op.Kind = OpScheduleCall
		}
		x.apply(op)
		ops[i] = op
	}
	return Program{Seed: seed, Ops: ops}
}

// Ticking programs mix tickers (OpTicker) with schedules, nested
// schedules and runs. They leave out Step: a sim.Scheduler Step may
// carry a ticker's inline ticks where the Reference, whose Advance
// always declines, fires one event, so the two snapshot different
// states after it. A run stops on its stride, where Advance declines,
// so fire logs, every snapshot and the final state agree exactly.
const (
	tickingMaxTicks  = 64
	tickingMaxPeriod = 1000
)

// GenerateTicking derives a ticking program of nops operations from
// seed.
func GenerateTicking(seed int64, nops int) Program {
	rng := rand.New(rand.NewSource(seed))
	kinds := [...]OpKind{OpScheduleCall, OpNested, OpRun, OpTicker}
	ops := make([]Op, nops)
	for i := range ops {
		op := Op{
			Kind:  kinds[rng.Intn(len(kinds))],
			Delay: sim.Time(rng.Intn(5000)),
			Child: sim.Time(rng.Intn(2000)),
			Count: 1 + rng.Intn(maxRun),
		}
		if rng.Intn(8) == 0 {
			op.Delay = 0
		}
		if op.Kind == OpTicker {
			op.Child = sim.Time(rng.Intn(tickingMaxPeriod + 1))
			op.Count = 1 + rng.Intn(tickingMaxTicks)
		}
		ops[i] = op
	}
	return Program{Seed: seed, Ops: ops}
}

// Fire records one observed event execution.
type Fire struct {
	ID    int      // deterministic event identity
	At    sim.Time // scheduler clock when it ran
	Fired uint64   // scheduler's fired counter after it ran
}

// Mark snapshots scheduler state after one program op.
type Mark struct {
	Now     sim.Time
	Fired   uint64
	Pending int
}

// Trace is everything a program execution observes about the
// scheduler. Two schedulers agree exactly when their Traces are equal.
type Trace struct {
	Fires []Fire
	Marks []Mark
	Now   sim.Time
	Fired uint64
	// Inline counts the ticks that ran inline through Advance. It
	// differs between the schedulers by design, and Diff ignores it.
	Inline int
}

// Run replays the program against s, which must be fresh, and returns
// its trace.
func (p Program) Run(s scheduler) Trace {
	x := newExec(s)
	for _, op := range p.Ops {
		x.apply(op)
	}
	s.Run()
	x.tr.Now, x.tr.Fired = s.Now(), s.EventsFired()
	return x.tr
}

// exec applies program ops to one scheduler, recording its trace.
// Event IDs are drawn from one counter shared by schedule-time and
// fire-time (nested children) assignment; the counter advances
// identically on both schedulers as long as the fire orders agree,
// and once they disagree the Fires records differ anyway.
type exec struct {
	s      scheduler
	tr     Trace
	nextID int
	note   sim.Callback
}

func newExec(s scheduler) *exec {
	x := &exec{s: s}
	x.note = func(_ sim.Time, arg any) {
		x.tr.Fires = append(x.tr.Fires, Fire{ID: arg.(int), At: s.Now(), Fired: s.EventsFired()})
	}
	return x
}

func (x *exec) schedule(delay sim.Time, cb sim.Callback) {
	x.s.ScheduleCall(delay, cb, x.nextID)
	x.nextID++
}

// startTicker schedules the first of ticks events, period apart. A
// tick takes a new event ID for its successor, runs it inline when
// Advance allows and schedules it otherwise. Every third tick also
// schedules a plain event due with the next tick, which fires first
// (same-tick FIFO), so Advance must decline there.
func (x *exec) startTicker(delay, period sim.Time, ticks int) {
	left := ticks
	var tick sim.Callback
	tick = func(now sim.Time, arg any) {
		for {
			x.note(now, arg)
			if left--; left <= 0 {
				return
			}
			if left%3 == 0 {
				x.schedule(period, x.note)
			}
			id := x.nextID
			x.nextID++
			if !x.s.Advance(x.s.Now() + period) {
				x.s.ScheduleCall(period, tick, id)
				return
			}
			x.tr.Inline++
			now, arg = x.s.Now(), id
		}
	}
	x.schedule(delay, tick)
}

// run fires n events through RunWhileSampled with a stride of n: the
// coarse check passes before the first event and stops the loop at the
// stride's end.
func (x *exec) run(n int) {
	started := false
	x.s.RunWhileSampled(func() bool { return true }, uint64(n), func() bool {
		first := !started
		started = true
		return first
	})
}

// apply performs one op and marks the scheduler state after it.
func (x *exec) apply(op Op) {
	switch op.Kind {
	case OpScheduleCall:
		x.schedule(op.Delay, x.note)
	case OpNested:
		child := op.Child
		x.schedule(op.Delay, func(now sim.Time, arg any) {
			x.note(now, arg)
			x.schedule(child, x.note)
		})
	case OpStep:
		x.s.Step()
	case OpRun:
		x.run(op.Count)
	case OpTicker:
		x.startTicker(op.Delay, op.Child, op.Count)
	}
	x.tr.Marks = append(x.tr.Marks, Mark{Now: x.s.Now(), Fired: x.s.EventsFired(), Pending: x.s.Pending()})
}

// Diff compares two traces and describes the first divergence, or
// returns "" when they are identical.
func Diff(a, b Trace) string {
	for i := 0; i < len(a.Fires) && i < len(b.Fires); i++ {
		if a.Fires[i] != b.Fires[i] {
			return fmt.Sprintf("fire %d: %+v vs %+v", i, a.Fires[i], b.Fires[i])
		}
	}
	if len(a.Fires) != len(b.Fires) {
		return fmt.Sprintf("fire counts differ: %d vs %d", len(a.Fires), len(b.Fires))
	}
	for i := 0; i < len(a.Marks) && i < len(b.Marks); i++ {
		if a.Marks[i] != b.Marks[i] {
			return fmt.Sprintf("after op %d: %+v vs %+v", i, a.Marks[i], b.Marks[i])
		}
	}
	if len(a.Marks) != len(b.Marks) {
		return fmt.Sprintf("mark counts differ: %d vs %d", len(a.Marks), len(b.Marks))
	}
	if a.Now != b.Now || a.Fired != b.Fired {
		return fmt.Sprintf("final state: now %v fired %d vs now %v fired %d", a.Now, a.Fired, b.Now, b.Fired)
	}
	return ""
}

// diverges runs p on sim.Scheduler and on the Reference and
// describes the first difference, or returns "" when they agree.
func (p Program) diverges() string {
	return Diff(p.Run(sim.NewScheduler()), p.Run(&Reference{}))
}

// Check runs p against both schedulers and returns "" on agreement, or
// a report carrying the divergence, the seed, and a delta-debugged
// minimal program.
func Check(p Program) string {
	d := p.diverges()
	if d == "" {
		return ""
	}
	m := Minimize(p)
	var b strings.Builder
	fmt.Fprintf(&b, "schedulers diverged (seed %d): %s\n", p.Seed, d)
	fmt.Fprintf(&b, "minimal reproducer (%d of %d ops):", len(m.Ops), len(p.Ops))
	for _, op := range m.Ops {
		fmt.Fprintf(&b, " %v", op)
	}
	return b.String()
}

// Minimize shrinks a program that makes the schedulers diverge,
// removing chunks of operations while the divergence persists (ddmin
// over the op list). The result still diverges; if p does not diverge
// it is returned unchanged.
func Minimize(p Program) Program {
	fails := func(ops []Op) bool { return Program{Seed: p.Seed, Ops: ops}.diverges() != "" }
	return Program{Seed: p.Seed, Ops: minimizeOps(p.Ops, fails)}
}

// minimizeOps is the scheduler-agnostic shrinker: it greedily deletes
// chunks of halving sizes as long as fails keeps reporting true.
func minimizeOps(ops []Op, fails func([]Op) bool) []Op {
	if !fails(ops) {
		return ops
	}
	for chunk := (len(ops) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			trial := make([]Op, 0, len(ops)-chunk)
			trial = append(trial, ops[:i]...)
			trial = append(trial, ops[i+chunk:]...)
			if fails(trial) {
				ops = trial
			} else {
				i += chunk
			}
		}
	}
	return ops
}
