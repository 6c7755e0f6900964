package trace

import (
	"testing"
	"testing/quick"
)

func TestOpInstructions(t *testing.T) {
	if got := (Op{NonMem: 7}).Instructions(); got != 8 {
		t.Fatalf("Instructions = %d, want 8", got)
	}
	if got := (Op{}).Instructions(); got != 1 {
		t.Fatalf("bare op Instructions = %d, want 1", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Load: "load", Store: "store", SWPrefetch: "swprefetch"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestSlice(t *testing.T) {
	ops := []Op{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	s := NewSlice(ops)
	for i := range ops {
		op, ok := s.Next()
		if !ok || op.Addr != ops[i].Addr {
			t.Fatalf("Next %d = %+v, %v", i, op, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted slice returned an op")
	}
}

// Property: a Slice yields exactly its ops in order, once.
func TestPropertySliceFaithful(t *testing.T) {
	f := func(addrs []uint32) bool {
		var ops []Op
		for _, a := range addrs {
			ops = append(ops, Op{Addr: uint64(a)})
		}
		s := NewSlice(ops)
		for i := 0; ; i++ {
			op, ok := s.Next()
			if !ok {
				return i == len(ops)
			}
			if i >= len(ops) || op.Addr != ops[i].Addr {
				return false
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
