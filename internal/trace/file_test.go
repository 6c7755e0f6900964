package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, ops []Op) []Op {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteFile(&buf, NewSlice(ops), uint64(len(ops))+10)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(ops)) {
		t.Fatalf("wrote %d ops, want %d", n, len(ops))
	}
	r, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []Op
	for {
		op, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, op)
	}
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	return out
}

func TestFileRoundTrip(t *testing.T) {
	ops := []Op{
		{NonMem: 3, Addr: 0x10000, Kind: Load},
		{NonMem: 0, Addr: 0x0fff0, Kind: Store},               // backward delta
		{NonMem: 200, Addr: 0x7fffffffffff, Kind: SWPrefetch}, // big jump
		{NonMem: 1, Addr: 0x10040, Kind: Load, DependsOnPrev: true},
	}
	got := roundTrip(t, ops)
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, got[i], ops[i])
		}
	}
}

// endless yields one op forever.
type endless struct{ op Op }

func (e endless) Next() (Op, bool) { return e.op, true }

func TestFileTruncatesAtN(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteFile(&buf, endless{Op{Addr: 64}}, 5)
	if err != nil || n != 5 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	r, _ := NewFileReader(&buf)
	count := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		count++
	}
	if count != 5 {
		t.Fatalf("decoded %d, want 5", count)
	}
}

func TestFileBadMagic(t *testing.T) {
	if _, err := NewFileReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFileTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	WriteFile(&buf, NewSlice([]Op{{NonMem: 5, Addr: 0x12345678, Kind: Load}}), 1)
	raw := buf.Bytes()[:buf.Len()-2] // chop mid-record
	r, err := NewFileReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() == nil {
		t.Fatal("truncated record decoded without error")
	}
}

func TestFileEmptyTrace(t *testing.T) {
	got := roundTrip(t, nil)
	if len(got) != 0 {
		t.Fatalf("decoded %d ops from empty trace", len(got))
	}
}

// Property: round-tripping preserves any operation sequence exactly.
func TestPropertyFileRoundTrip(t *testing.T) {
	f := func(raw []uint64) bool {
		var ops []Op
		for _, r := range raw {
			ops = append(ops, Op{
				NonMem:        int(r % 1024),
				Addr:          r >> 3,
				Kind:          Kind(r % 3),
				DependsOnPrev: r%5 == 0,
			})
		}
		var buf bytes.Buffer
		if _, err := WriteFile(&buf, NewSlice(ops), uint64(len(ops))); err != nil {
			return false
		}
		rd, err := NewFileReader(&buf)
		if err != nil {
			return false
		}
		for i := 0; ; i++ {
			op, ok := rd.Next()
			if !ok {
				return i == len(ops) && rd.Err() == nil
			}
			if i >= len(ops) || op != ops[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: streaming traces compress well (delta coding): sequential
// addresses cost only a few bytes per record.
func TestFileCompactness(t *testing.T) {
	var ops []Op
	for i := 0; i < 1000; i++ {
		ops = append(ops, Op{NonMem: 5, Addr: uint64(i) * 64, Kind: Load})
	}
	var buf bytes.Buffer
	WriteFile(&buf, NewSlice(ops), 1000)
	perOp := float64(buf.Len()-len(fileMagic)) / 1000
	if perOp > 5 {
		t.Fatalf("%.1f bytes/op for a sequential trace, want <= 5", perOp)
	}
}
