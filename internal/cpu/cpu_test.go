package cpu

import (
	"strings"
	"testing"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

var testClock = sim.NewClock(1.6e9)

func cfg(maxInstrs uint64) Config {
	return Config{Width: 4, ROBSize: 64, StoreBuffer: 64, Clock: testClock, MaxInstrs: maxInstrs}
}

// fixedMemory answers every access synchronously after a fixed latency.
type fixedMemory struct {
	sched   *sim.Scheduler
	latency sim.Time
	count   int
}

func (m *fixedMemory) Access(addr uint64, kind trace.Kind, complete func(sim.Time)) Reply {
	m.count++
	return Reply{Accepted: true, Done: true, At: m.sched.Now() + m.latency}
}

// pendingMemory completes loads via callback after a fixed delay and
// tracks concurrent outstanding accesses. kinds logs the kind of each
// accepted access.
type pendingMemory struct {
	sched          *sim.Scheduler
	latency        sim.Time
	capacity       int
	outstanding    int
	maxOutstanding int
	onFree         func()
	kinds          []trace.Kind
}

// count reports how many accepted accesses were of kind k.
func (m *pendingMemory) count(k trace.Kind) int {
	n := 0
	for _, got := range m.kinds {
		if got == k {
			n++
		}
	}
	return n
}

// freed returns the signal a memory gives c when it frees a resource:
// a refused access may now get in, and the core may be idle.
func freed(c *CPU) func() {
	return func() {
		c.Unpark()
		c.Wake()
	}
}

func (m *pendingMemory) Access(addr uint64, kind trace.Kind, complete func(sim.Time)) Reply {
	if m.capacity > 0 && m.outstanding >= m.capacity {
		return Reply{}
	}
	m.kinds = append(m.kinds, kind)
	m.outstanding++
	if m.outstanding > m.maxOutstanding {
		m.maxOutstanding = m.outstanding
	}
	m.sched.ScheduleCall(m.latency, func(now sim.Time, _ any) {
		m.outstanding--
		if complete != nil {
			complete(now)
		}
		if m.onFree != nil {
			m.onFree()
		}
	}, nil)
	return Reply{Accepted: true}
}

func computeOps(n int) []trace.Op {
	var ops []trace.Op
	for i := 0; i < n; i++ {
		ops = append(ops, trace.Op{NonMem: 19, Addr: uint64(i) * 64, Kind: trace.Load})
	}
	return ops
}

// ipc is retired instructions per executed cycle.
func ipc(c *CPU) float64 {
	return float64(c.Stats().Retired) / float64(c.Cycles())
}

func run(t *testing.T, s *sim.Scheduler, c *CPU) {
	t.Helper()
	s.RunWhile(func() bool { return !c.Done() })
	if !c.Done() {
		t.Fatal("simulation drained without core finishing")
	}
}

func TestPureComputeIPCNearWidth(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(2)}
	c, err := New(s, mem, trace.NewSlice(computeOps(100)), cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	run(t, s, c)
	if c.Stats().Retired != 2000 {
		t.Fatalf("retired = %d, want 2000", c.Stats().Retired)
	}
	if got := ipc(c); got < 3.5 || got > 4.0 {
		t.Fatalf("compute IPC = %v, want near width 4", got)
	}
}

func TestIPCNeverExceedsWidth(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
	c, _ := New(s, mem, trace.NewSlice(computeOps(50)), cfg(0))
	run(t, s, c)
	if ipc(c) > 4.0 {
		t.Fatalf("IPC = %v exceeds retire width", ipc(c))
	}
}

// cycle replays ops endlessly.
type cycle struct {
	ops []trace.Op
	i   int
}

func (c *cycle) Next() (trace.Op, bool) {
	op := c.ops[c.i%len(c.ops)]
	c.i++
	return op, true
}

func TestMaxInstrsBudget(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
	c, _ := New(s, mem, &cycle{ops: computeOps(4)}, cfg(1000))
	run(t, s, c)
	if got := c.Stats().Retired; got != 1000 {
		t.Fatalf("retired = %d, want budget 1000", got)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// 8 independent loads with 500ns latency should overlap almost
	// completely; 8 dependent loads serialize to ~4000ns.
	lat := 500 * sim.Nanosecond
	runWith := func(dep bool) (sim.Time, int) {
		s := sim.NewScheduler()
		mem := &pendingMemory{sched: s, latency: lat}
		var ops []trace.Op
		for i := 0; i < 8; i++ {
			ops = append(ops, trace.Op{Addr: uint64(i) * 4096, Kind: trace.Load, DependsOnPrev: dep && i > 0})
		}
		c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
		s.RunWhile(func() bool { return !c.Done() })
		return c.FinishTime(), mem.maxOutstanding
	}
	tPar, mlpPar := runWith(false)
	tSer, mlpSer := runWith(true)
	if tPar >= tSer {
		t.Fatalf("parallel %v not faster than serial %v", tPar, tSer)
	}
	if tSer < 8*lat {
		t.Fatalf("serial chain finished in %v, faster than 8 serialized misses", tSer)
	}
	if tPar > 2*lat {
		t.Fatalf("independent misses took %v, want near one latency %v", tPar, lat)
	}
	if mlpPar < 8 {
		t.Fatalf("parallel MLP = %d, want 8", mlpPar)
	}
	if mlpSer != 1 {
		t.Fatalf("serial MLP = %d, want 1", mlpSer)
	}
}

func TestROBBoundsMLP(t *testing.T) {
	// With a 64-entry window and loads every 8 instructions, at most
	// 64/8 = 8 loads can be outstanding.
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 2 * sim.Microsecond}
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, trace.Op{NonMem: 7, Addr: uint64(i) * 4096, Kind: trace.Load})
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	if mem.maxOutstanding > 8 {
		t.Fatalf("maxOutstanding = %d, want <= 8 (ROB-bounded)", mem.maxOutstanding)
	}
}

func TestMSHRRejectionStallsAndWakes(t *testing.T) {
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 100 * sim.Nanosecond, capacity: 2}
	var ops []trace.Op
	for i := 0; i < 16; i++ {
		ops = append(ops, trace.Op{Addr: uint64(i) * 4096, Kind: trace.Load})
	}
	c, err := New(s, mem, trace.NewSlice(ops), cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	mem.onFree = freed(c)
	run(t, s, c)
	if mem.maxOutstanding > 2 {
		t.Fatalf("capacity violated: %d outstanding", mem.maxOutstanding)
	}
	// 16 misses through 2 MSHRs at 100ns: at least 8 serialized rounds.
	if c.FinishTime() < 800*sim.Nanosecond {
		t.Fatalf("finish at %v, too fast for 2-way MSHR limit", c.FinishTime())
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// Stores whose fills take enormous time must not stall the core.
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: sim.Millisecond}
	ops := []trace.Op{
		{NonMem: 3, Addr: 0x1000, Kind: trace.Store},
		{NonMem: 3, Addr: 0x2000, Kind: trace.Store},
		{NonMem: 3, Addr: 0x3000, Kind: trace.Store},
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	if c.FinishTime() > 100*testClock.Period() {
		t.Fatalf("stores stalled retirement: finish at %v", c.FinishTime())
	}
	if n := mem.count(trace.Store); n != 3 {
		t.Fatalf("stores = %d", n)
	}
}

func TestSoftwarePrefetchNonBlocking(t *testing.T) {
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: sim.Millisecond}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.SWPrefetch},
		{NonMem: 10, Addr: 0x2000, Kind: trace.SWPrefetch},
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	if n := mem.count(trace.SWPrefetch); n != 2 {
		t.Fatalf("prefetches = %d, want 2", n)
	}
	if c.FinishTime() > 100*testClock.Period() {
		t.Fatalf("prefetches stalled retirement: finish at %v", c.FinishTime())
	}
}

func TestSoftwarePrefetchDroppedWhenSaturated(t *testing.T) {
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 10 * sim.Microsecond, capacity: 1}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.Load},       // occupies the only slot
		{Addr: 0x2000, Kind: trace.SWPrefetch}, // must be dropped
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	mem.onFree = freed(c)
	run(t, s, c)
	if c.Stats().DroppedPrefetches != 1 {
		t.Fatalf("dropped = %d, want 1", c.Stats().DroppedPrefetches)
	}
}

func TestDependentLoadOnCompletedProducer(t *testing.T) {
	// A dependent load whose producer already completed issues without
	// extra delay.
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(3)}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.Load},
		{NonMem: 40, Addr: 0x2000, Kind: trace.Load, DependsOnPrev: true},
	}
	c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
	run(t, s, c)
	// 42 instructions at width 4 dominate; the dependence adds ~3 cycles.
	if c.Cycles() > 25 {
		t.Fatalf("cycles = %d, dependence on completed producer over-stalled", c.Cycles())
	}
}

func TestOnDoneFiresOnce(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: testClock.Cycles(1)}
	c, _ := New(s, mem, trace.NewSlice(computeOps(5)), cfg(0))
	n := 0
	c.OnDone = func() { n++ }
	s.Run()
	if n != 1 {
		t.Fatalf("OnDone fired %d times", n)
	}
	if !c.Done() || c.FinishTime() == 0 {
		t.Fatal("Done/FinishTime not set")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (sim.Time, uint64) {
		s := sim.NewScheduler()
		mem := &pendingMemory{sched: s, latency: 77 * sim.Nanosecond, capacity: 4}
		var ops []trace.Op
		for i := 0; i < 200; i++ {
			ops = append(ops, trace.Op{
				NonMem: i % 9, Addr: uint64(i*193) % (1 << 20) * 64,
				Kind: trace.Kind(i % 3), DependsOnPrev: i%5 == 0,
			})
		}
		c, _ := New(s, mem, trace.NewSlice(ops), cfg(0))
		mem.onFree = freed(c)
		s.RunWhile(func() bool { return !c.Done() })
		return c.FinishTime(), c.Stats().Retired
	}
	t1, r1 := runOnce()
	t2, r2 := runOnce()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, r1, t2, r2)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Width: 0, ROBSize: 64, StoreBuffer: 8, Clock: testClock},
		{Width: 4, ROBSize: 0, StoreBuffer: 8, Clock: testClock},
		{Width: 4, ROBSize: 64, StoreBuffer: 0, Clock: testClock},
		{Width: 4, ROBSize: 64, StoreBuffer: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", c)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	s := sim.NewScheduler()
	mem := &fixedMemory{sched: s, latency: 0}
	c, _ := New(s, mem, trace.NewSlice(nil), cfg(0))
	s.Run()
	if !c.Done() || c.Stats().Retired != 0 {
		t.Fatal("empty trace did not finish cleanly")
	}
}

// A plain instruction's slot records only its completion time, so the
// deadlock dump must not read the op a load or store left there: the
// head prints as plain, or as the memory op it holds.
func TestDebugStateNamesHeadKind(t *testing.T) {
	s := sim.NewScheduler()
	mem := &pendingMemory{sched: s, latency: 50 * sim.Nanosecond}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.Load},
		{NonMem: 6, Addr: 0x2000, Kind: trace.Store},
	}
	c, err := New(s, mem, trace.NewSlice(ops), Config{Width: 1, ROBSize: 4, StoreBuffer: 4, Clock: testClock})
	if err != nil {
		t.Fatal(err)
	}
	// Sequence numbers 0 to 7 are the load, six plain instructions and
	// the store, so slot 0 holds the load and then the fourth plain one.
	want := []string{"kind=load addr=0x1000", "kind=plain", "kind=plain", "kind=plain", "kind=plain", "kind=plain", "kind=plain", "kind=store addr=0x2000"}
	checked := 0
	check := func() {
		r := c.Stats().Retired
		if got := c.DebugState(); !strings.Contains(got, "head{"+want[r]) {
			t.Errorf("retired %d: DebugState %q, want head %q", r, got, want[r])
		}
		checked++
	}
	// The first step runs until the pending load at the head fills the
	// window; then each cycle that retires checks the new head.
	s.Step()
	check()
	var next func()
	next = func() {
		if c.count > 0 {
			check()
		}
		c.Milestone, c.OnMilestone = c.Stats().Retired+1, next
	}
	c.Milestone, c.OnMilestone = 1, next
	run(t, s, c)
	if checked != len(want) {
		t.Fatalf("checked %d heads, want %d", checked, len(want))
	}
}
