// Package trace defines the instruction-stream representation consumed
// by the core model: a sequence of memory operations, each preceded by
// a count of non-memory instructions.
//
// This compressed form carries exactly the information the memory-
// system study needs from a program: where the memory references go,
// how much computation separates them, and which loads depend on the
// previous load (pointer chasing), which bounds memory-level
// parallelism.
package trace

import "fmt"

// Kind classifies a memory operation.
type Kind uint8

// Memory operation kinds.
const (
	// Load blocks the consuming instruction until data returns.
	Load Kind = iota
	// Store retires through the store buffer without stalling.
	Store
	// SWPrefetch is a software prefetch instruction: it occupies an
	// issue slot and may trigger a fill, but nothing waits for it
	// (Section 4.7).
	SWPrefetch
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case SWPrefetch:
		return "swprefetch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one memory operation and the non-memory instructions preceding
// it. An Op therefore represents NonMem+1 retired instructions.
type Op struct {
	// NonMem is the number of non-memory instructions retired before
	// this operation.
	NonMem int
	// Addr is the physical address referenced.
	Addr uint64
	// Kind classifies the operation.
	Kind Kind
	// DependsOnPrev marks a load whose address depends on the data of
	// the most recent preceding load: it cannot issue until that load
	// completes. Chains of dependent loads serialize their misses.
	DependsOnPrev bool
}

// Instructions reports how many retired instructions the op represents.
func (o Op) Instructions() uint64 { return uint64(o.NonMem) + 1 }

// Generator produces an instruction stream. Implementations must be
// deterministic for a given construction so simulations are repeatable.
type Generator interface {
	// Next returns the next operation. ok is false when the stream is
	// exhausted; infinite generators never return false.
	Next() (op Op, ok bool)
}

// Slice replays a fixed sequence of operations. It is primarily a test
// helper and a target for trace capture tools.
type Slice struct {
	Ops []Op
	pos int
}

// NewSlice returns a generator replaying ops.
func NewSlice(ops []Op) *Slice { return &Slice{Ops: ops} }

// Next implements Generator.
func (s *Slice) Next() (Op, bool) {
	if s.pos >= len(s.Ops) {
		return Op{}, false
	}
	op := s.Ops[s.pos]
	s.pos++
	return op, true
}
