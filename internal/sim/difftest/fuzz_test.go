package difftest

import (
	"testing"

	"memsim/internal/sim"
)

// fuzzProgram interprets data as a program. Each op consumes three
// bytes: a kind selector and a 16-bit delay, whose low byte doubles as
// a nested op's child delay. The high selector bit stretches the delay
// by 2^20, reaching across bucket rotations so the fuzzer can mix the
// calendar queue's near, wrapped and sparse-year paths in one input.
func fuzzProgram(data []byte) Program {
	var p Program
	for i := 0; i+2 < len(data); i += 3 {
		sel := data[i]
		delay := sim.Time(data[i+1]) | sim.Time(data[i+2])<<8
		if sel&0x80 != 0 {
			delay <<= 20
		}
		p.Ops = append(p.Ops, Op{Kind: OpKind(sel % uint8(numOpKinds)), Delay: delay, Child: sim.Time(data[i+1])})
	}
	return p
}

// FuzzCalendarQueue drives the calendar queue and the Reference with
// the same fuzzer-chosen program and checks the calendar queue's
// ordering invariants — fire times monotone non-decreasing, FIFO among
// same-tick events — plus exact agreement with the heap. Event IDs are
// assigned in scheduling order, which is the same-tick FIFO order.
func FuzzCalendarQueue(f *testing.F) {
	// Seed corpus: a same-tick burst, a run-until-heavy mix, far-future
	// jumps (exercising the sparse-year cursor path), the shape of
	// difftest seed 0's cursor regression, and a sparse program long
	// enough to retune the bucket width.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 10, 0, 3, 5, 0, 1, 20, 0, 3, 1, 0, 3, 255, 255})
	f.Add([]byte{128, 1, 0, 0, 5, 0, 129, 2, 0, 2, 0, 0, 3, 0, 128})
	f.Add([]byte{0, 17, 13, 3, 81, 4, 0, 93, 0})
	f.Add(sparseFuzzSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		cal := p.Run(sim.NewScheduler())
		for i := 1; i < len(cal.Fires); i++ {
			prev, cur := cal.Fires[i-1], cal.Fires[i]
			if cur.At < prev.At {
				t.Fatalf("fire %d: time went backward: %v after %v", i, cur.At, prev.At)
			}
			if cur.At == prev.At && cur.ID < prev.ID {
				t.Fatalf("fire %d: same-tick FIFO broken: id %d after %d at %v", i, cur.ID, prev.ID, cur.At)
			}
		}
		if d := Diff(cal, p.Run(&Reference{})); d != "" {
			t.Fatalf("calendar queue diverged from the heap: %s", d)
		}
	})
}

// sparseFuzzSeed encodes a sparse program (GenerateSparse) in
// fuzzProgram's byte form. Delays shrink eightfold to fit 16 bits, so
// events sit 1–60 ns apart: still many empty 1 ns days per pop, and
// 300 ops cross the calendar queue's retune window.
func sparseFuzzSeed() []byte {
	var b []byte
	for _, op := range GenerateSparse(1, 300).Ops {
		d := op.Delay / 8
		b = append(b, byte(op.Kind), byte(d), byte(d>>8))
	}
	return b
}
