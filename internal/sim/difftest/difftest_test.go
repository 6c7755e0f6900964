package difftest

import (
	"testing"

	"memsim/internal/sim"
)

// TestDiffSchedulerRandomPrograms drives both schedulers with 10k seeded
// random programs and demands bit-identical observable behavior. On a
// divergence the failing seed is printed along with a delta-debugged
// minimal reproducer, so a regression is immediately replayable with
// Generate(seed, diffProgramOps).
const (
	diffProgramCount = 10_000
	diffProgramOps   = 64
)

func TestDiffSchedulerRandomPrograms(t *testing.T) {
	n := diffProgramCount
	if testing.Short() {
		n = 500
	}
	for seed := int64(0); seed < int64(n); seed++ {
		if report := Check(Generate(seed, diffProgramOps)); report != "" {
			t.Fatalf("%s\nreplay: Check(Generate(%d, %d))", report, seed, diffProgramOps)
		}
	}
}

// TestDiffSchedulerSparsePrograms drives both schedulers with sparse
// programs (GenerateSparse): at most four pending events, tens to
// hundreds of nanoseconds apart, with short runs followed by schedules
// earlier than the events still queued.
const (
	sparseProgramCount = 2_000
	sparseProgramOps   = 400
)

func TestDiffSchedulerSparsePrograms(t *testing.T) {
	n := sparseProgramCount
	if testing.Short() {
		n = 200
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := GenerateSparse(seed, sparseProgramOps)
		if report := Check(p); report != "" {
			t.Fatalf("%s\nreplay: Check(GenerateSparse(%d, %d))", report, seed, sparseProgramOps)
		}
		for _, m := range p.Run(&Reference{}).Marks {
			if m.Pending > sparseMaxPending {
				t.Fatalf("seed %d: %d events pending, sparse programs keep at most %d", seed, m.Pending, sparseMaxPending)
			}
		}
	}
}

// TestDiffSchedulerDeepPrograms drives both schedulers with deep
// programs (GenerateDeep), which hold more than a thousand events
// pending, as a cluster whose members prefetch does at its tail. Each
// program must reach deepPending queued events.
const (
	deepProgramCount = 100
	deepProgramOps   = 3_000
)

func TestDiffSchedulerDeepPrograms(t *testing.T) {
	n := deepProgramCount
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := GenerateDeep(seed, deepProgramOps)
		if report := Check(p); report != "" {
			t.Fatalf("%s\nreplay: Check(GenerateDeep(%d, %d))", report, seed, deepProgramOps)
		}
		peak := 0
		for _, m := range p.Run(&Reference{}).Marks {
			peak = max(peak, m.Pending)
		}
		if peak < deepPending {
			t.Fatalf("seed %d: at most %d events pending, deep programs reach %d", seed, peak, deepPending)
		}
	}
}

// TestDiffSchedulerTickingPrograms drives both schedulers with ticking
// programs (GenerateTicking): self-re-arming tickers that run their
// next tick inline through Advance on sim.Scheduler and schedule
// every tick on the Reference, among schedules, nested schedules and
// runs that stop on a RunWhileSampled stride. The fire logs, the fired
// counts and every snapshot must agree, and sim.Scheduler must have
// run ticks inline.
const (
	tickingProgramCount = 2_000
	tickingProgramOps   = 128
)

func TestDiffSchedulerTickingPrograms(t *testing.T) {
	n := tickingProgramCount
	if testing.Short() {
		n = 200
	}
	inline := 0
	for seed := int64(0); seed < int64(n); seed++ {
		p := GenerateTicking(seed, tickingProgramOps)
		if report := Check(p); report != "" {
			t.Fatalf("%s\nreplay: Check(GenerateTicking(%d, %d))", report, seed, tickingProgramOps)
		}
		inline += p.Run(sim.NewScheduler()).Inline
	}
	if inline == 0 {
		t.Fatalf("none of %d ticking programs ran a tick inline", n)
	}
}

// TestSparseSchedulingAllocatesNothing pins the sparse scheduling
// paths at zero allocations once warm: schedules into a few-event
// queue, a step, a schedule earlier than the event still queued, and a
// drain.
func TestSparseSchedulingAllocatesNothing(t *testing.T) {
	s := sim.NewScheduler()
	noop := func(sim.Time, any) {}
	round := 0
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			round++
			g := sim.Time(10+(round*37)%490) * sim.Nanosecond
			s.ScheduleCall(4*g, noop, nil)
			s.ScheduleCall(2*g, noop, nil)
			s.Step()
			s.ScheduleCall(g/2, noop, nil)
			s.Run()
		}
	}
	rounds(500)
	if got := testing.AllocsPerRun(10, func() { rounds(200) }); got != 0 {
		t.Fatalf("%v allocations per 200 sparse rounds, want 0", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42, 128), Generate(42, 128)
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %v vs %v", i, a.Ops[i], b.Ops[i])
		}
	}
	if Diff(a.Run(sim.NewScheduler()), b.Run(sim.NewScheduler())) != "" {
		t.Fatal("same program, same scheduler produced different traces")
	}
}

func TestDiffReportsDivergence(t *testing.T) {
	p := Generate(7, 32)
	tr := p.Run(sim.NewScheduler())
	if Diff(tr, tr) != "" {
		t.Fatal("trace differs from itself")
	}

	mut := p.Run(sim.NewScheduler())
	if len(mut.Fires) == 0 {
		t.Fatal("program fired nothing; pick a livelier seed")
	}
	mut.Fires[0].At++
	if Diff(tr, mut) == "" {
		t.Fatal("Diff missed a mutated fire record")
	}

	mut = p.Run(sim.NewScheduler())
	mut.Fires = mut.Fires[:len(mut.Fires)-1]
	if Diff(tr, mut) == "" {
		t.Fatal("Diff missed a truncated fire log")
	}

	mut = p.Run(sim.NewScheduler())
	mut.Marks[3].Pending++
	if Diff(tr, mut) == "" {
		t.Fatal("Diff missed a mutated snapshot")
	}

	mut = p.Run(sim.NewScheduler())
	mut.Fired++
	if Diff(tr, mut) == "" {
		t.Fatal("Diff missed a mutated final state")
	}
}

func TestMinimizeShrinks(t *testing.T) {
	// The schedulers (correctly) never diverge, so exercise the shrinker
	// against a synthetic failure predicate: "contains both a nested op
	// and a run op". The minimum such program has exactly two ops.
	ops := Generate(3, 200).Ops
	has := func(ops []Op, k OpKind) bool {
		for _, o := range ops {
			if o.Kind == k {
				return true
			}
		}
		return false
	}
	fails := func(ops []Op) bool { return has(ops, OpNested) && has(ops, OpRun) }
	if !fails(ops) {
		t.Fatal("generated program lacks the op kinds the predicate needs")
	}
	min := minimizeOps(ops, fails)
	if !fails(min) {
		t.Fatal("minimized program no longer fails")
	}
	if len(min) != 2 {
		t.Fatalf("minimized to %d ops, want 2: %v", len(min), min)
	}
}

func TestMinimizeKeepsPassingProgram(t *testing.T) {
	p := Generate(11, 40)
	m := Minimize(p)
	if len(m.Ops) != len(p.Ops) {
		t.Fatalf("Minimize shrank a passing program: %d -> %d ops", len(p.Ops), len(m.Ops))
	}
}

func TestOpStrings(t *testing.T) {
	// The minimal-reproducer report renders ops; keep every kind
	// printable so a failure message never shows an opaque struct.
	for k := OpKind(0); k <= OpTicker; k++ {
		if s := (Op{Kind: k, Delay: 5, Child: 7}).String(); s == "" {
			t.Fatalf("op kind %d renders empty", k)
		}
	}
	if OpKind(200).String() != "op(200)" {
		t.Fatal("unknown op kind not rendered defensively")
	}
}
