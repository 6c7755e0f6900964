package difftest

import (
	"testing"

	"memsim/internal/sim"
)

// fuzzProgram interprets data as a program. Each op consumes three
// bytes: a kind selector and a 16-bit delay, whose low byte doubles as
// a nested op's child delay and whose high byte sets a run's event
// count. The high selector bit stretches the delay by 2^20, to about a
// microsecond or more, so the fuzzer can mix same-tick, near and far
// events in one input.
// Selector bit 0x40 makes the op a ticker whose period is the delay's
// low byte and whose tick count comes from its high byte. A program
// with a ticker is a ticking program, so its steps become runs of one
// event (see GenerateTicking).
func fuzzProgram(data []byte) Program {
	var p Program
	ticking := false
	for i := 0; i+2 < len(data); i += 3 {
		sel := data[i]
		delay := sim.Time(data[i+1]) | sim.Time(data[i+2])<<8
		if sel&0x80 != 0 {
			delay <<= 20
		}
		op := Op{Kind: OpKind(sel % uint8(numOpKinds)), Delay: delay, Child: sim.Time(data[i+1]), Count: 1 + int(data[i+2])%maxRun}
		if sel&0x40 != 0 {
			op.Kind, op.Count = OpTicker, 1+int(data[i+2])%tickingMaxTicks
			ticking = true
		}
		p.Ops = append(p.Ops, op)
	}
	if ticking {
		for i := range p.Ops {
			if p.Ops[i].Kind == OpStep {
				p.Ops[i].Kind, p.Ops[i].Count = OpRun, 1
			}
		}
	}
	return p
}

// FuzzEventQueue drives sim.Scheduler and the Reference with the same
// fuzzer-chosen program and checks the scheduler's ordering invariants
// — fire times monotone non-decreasing, FIFO among same-tick events —
// plus exact agreement with the heap. Event IDs are assigned in
// scheduling order, which is the same-tick FIFO order.
func FuzzEventQueue(f *testing.F) {
	// Seed corpus: a same-tick burst, a run-heavy mix, far-future
	// jumps, a schedule earlier than a far event queued across a run
	// (TestInsertBeforeFarPeek's shape), a long sparse program, and
	// tickers cut by runs' stride stops and by events due with their
	// next tick.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 10, 0, 3, 5, 0, 1, 20, 0, 3, 1, 0, 3, 255, 255})
	f.Add([]byte{128, 1, 0, 0, 5, 0, 129, 2, 0, 2, 0, 0, 3, 0, 128})
	f.Add([]byte{0, 17, 13, 0, 81, 4, 3, 0, 0, 0, 93, 0})
	f.Add(sparseFuzzSeed())
	f.Add([]byte{0x40, 100, 20, 0, 250, 0, 3, 120, 1, 0x40, 7, 3, 1, 50, 0, 3, 255, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		got := p.Run(sim.NewScheduler())
		for i := 1; i < len(got.Fires); i++ {
			prev, cur := got.Fires[i-1], got.Fires[i]
			if cur.At < prev.At {
				t.Fatalf("fire %d: time went backward: %v after %v", i, cur.At, prev.At)
			}
			if cur.At == prev.At && cur.ID < prev.ID {
				t.Fatalf("fire %d: same-tick FIFO broken: id %d after %d at %v", i, cur.ID, prev.ID, cur.At)
			}
		}
		if d := Diff(got, p.Run(&Reference{})); d != "" {
			t.Fatalf("scheduler diverged from the heap: %s", d)
		}
	})
}

// sparseFuzzSeed encodes a sparse program (GenerateSparse) in
// fuzzProgram's byte form. Delays shrink eightfold to fit 16 bits, so
// events sit 1–60 ns apart, a few at a time.
func sparseFuzzSeed() []byte {
	var b []byte
	for _, op := range GenerateSparse(1, 300).Ops {
		d := op.Delay / 8
		b = append(b, byte(op.Kind), byte(d), byte(d>>8))
	}
	return b
}
