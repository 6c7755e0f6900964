package core

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"memsim/internal/memctrl"
	"memsim/internal/sim"
	"memsim/internal/trace"
)

// testSystem builds a tuned system, edited by edit when non-nil, over
// an empty instruction stream, so a test drives the hierarchy directly.
func testSystem(t *testing.T, edit func(*Config)) (*System, *hierarchy) {
	t.Helper()
	cfg := Tuned()
	if edit != nil {
		edit(&cfg)
	}
	s, err := New(cfg, trace.NewSlice(nil))
	if err != nil {
		t.Fatal(err)
	}
	return s, (*hierarchy)(s)
}

// stepUntil fires events until done reports true.
func stepUntil(t *testing.T, s *System, done func() bool) {
	t.Helper()
	for !done() {
		if !s.sched.Step() {
			t.Fatal("scheduler drained first")
		}
	}
}

func nop(sim.Time) {}

// TestFillMerges checks that a demand miss merges into the block's fill
// in flight whatever its kind: into a demand fill without taking a
// second MSHR, and into a hardware prefetch fill as a late merge that
// marks it demanded. Every merged load fires.
func TestFillMerges(t *testing.T) {
	s, h := testSystem(t, func(c *Config) { c.MSHRs = 1 })
	a := uint64(0x40000) // region-aligned
	x := a + uint64(s.cfg.L2Block)
	var fired []uint64
	load := func(addr uint64) bool {
		return h.Access(addr, trace.Load, func(sim.Time) { fired = append(fired, addr) }).Accepted
	}
	if !load(a) || !load(a+8) {
		t.Fatal("a miss and its merge refused")
	}
	if f := s.fills.find(a); f == nil || f.kind != demandReq || len(f.waiters) != 2 || s.held != 1 {
		t.Fatalf("demand fill %+v holding %d MSHRs, want one demand fill with 2 waiters holding 1", f, s.held)
	}

	// The idle controller pulls the region's prefetch of x while a is
	// outstanding.
	stepUntil(t, s, func() bool { return s.fills.find(x) != nil })
	f := s.fills.find(x)
	if f.kind != prefetchReq || s.held != 1 {
		t.Fatalf("fill of x has kind %v with %d MSHRs held, want a prefetch holding none", f.kind, s.held)
	}
	late := s.lateMerges
	if !load(x) {
		t.Fatal("late merge refused while the only MSHR is held")
	}
	if !f.demand || len(f.waiters) != 1 || s.lateMerges != late+1 {
		t.Fatalf("late merge: demand=%v waiters=%d lateMerges +%d", f.demand, len(f.waiters), s.lateMerges-late)
	}

	stepUntil(t, s, func() bool { return s.fills.find(a) == nil && s.fills.find(x) == nil })
	slices.Sort(fired)
	if want := []uint64{a, a + 8, x}; !slices.Equal(fired, want) {
		t.Fatalf("fired %#x, want %#x", fired, want)
	}
	if s.held != 0 || !s.l2.Contains(a) || !s.l2.Contains(x) {
		t.Fatalf("after both fills: %d MSHRs held, L2 holds a %v, x %v", s.held, s.l2.Contains(a), s.l2.Contains(x))
	}
}

// TestMergeDuringFirstDataFiresAtCompletion checks that a request
// merging into a demand fill while the fill's first-data waiters run
// waits for the full line: it fires once the fill has left the index,
// later than the first data.
func TestMergeDuringFirstDataFiresAtCompletion(t *testing.T) {
	// A 256-byte line takes long enough on the bus that its first data
	// and its completion fall at different times.
	s, h := testSystem(t, func(c *Config) { c.L1Block, c.L2Block = 32, 256 })
	a := uint64(0x40000)
	var firstAt, mergedAt sim.Time
	h.Access(a, trace.Load, func(at sim.Time) {
		firstAt = at
		ok := h.Access(a+32, trace.Load, func(at sim.Time) {
			mergedAt = at
			if s.fills.find(a) != nil {
				t.Error("merged waiter fired while its fill was still indexed")
			}
		}).Accepted
		if !ok {
			t.Error("merge during first data refused")
		}
	})
	stepUntil(t, s, func() bool { return s.fills.find(a) == nil })
	if firstAt == 0 || mergedAt <= firstAt {
		t.Fatalf("first data at %v, merged request fired at %v: want it later", firstAt, mergedAt)
	}
}

// TestWaiterMissAfterCompletion checks that a waiter fired by a fill's
// completion can miss again at once: the fill has given its MSHR back,
// so the new miss takes it.
func TestWaiterMissAfterCompletion(t *testing.T) {
	s, h := testSystem(t, func(c *Config) { c.MSHRs = 1; c.L1Block = 32 })
	a, y := uint64(0x40000), uint64(0x80000)
	var next *missReq
	h.Access(a, trace.Load, func(sim.Time) {
		h.Access(a+32, trace.Load, func(sim.Time) {
			if !h.Access(y, trace.Load, nop).Accepted {
				t.Error("miss from a completion waiter refused")
			}
			next = s.fills.find(y)
		})
	})
	stepUntil(t, s, func() bool { return s.fills.find(a) == nil })
	if next == nil || next.kind != demandReq || s.held != 1 {
		t.Fatalf("fill of y %+v with %d MSHRs held, want a demand fill holding the MSHR", next, s.held)
	}
	stepUntil(t, s, func() bool { return s.fills.find(y) == nil })
	if s.held != 0 {
		t.Fatalf("%d MSHRs held after every fill completed", s.held)
	}
}

// TestDuplicateFillPanics checks that completing a fill twice panics
// with the text TestFaultClassesAllCaught's duplicate-fill case wants.
func TestDuplicateFillPanics(t *testing.T) {
	s, h := testSystem(t, nil)
	a := uint64(0x40000)
	h.Access(a, trace.Load, nop)
	r := s.fills.find(a)
	r.onComplete(s.sched.Now())
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "MSHR complete for unknown block") {
			t.Fatalf("second completion panicked with %q", msg)
		}
	}()
	r.onComplete(s.sched.Now())
}

// TestPrefetchFillsHoldNoMSHR checks, on unscheduled prefetching, where
// a demand miss issues its whole region at once, that hardware prefetch
// fills never count toward the MSHR limit: with the one MSHR held, a
// miss elsewhere is refused while a miss into a prefetched block merges.
func TestPrefetchFillsHoldNoMSHR(t *testing.T) {
	s, h := testSystem(t, func(c *Config) {
		c.MSHRs = 1
		c.Prefetch.Scheduled, c.Prefetch.BankAware = false, false
		c.Obs.Metrics = true
	})
	a := uint64(0x40000)
	if !h.Access(a, trace.Load, nop).Accepted {
		t.Fatal("first miss refused")
	}
	n := s.fills.n
	if s.held != 1 || n < 8 || len(s.fills.buckets) < 4 {
		t.Fatalf("%d fills in %d buckets holding %d MSHRs: want the region in flight on one MSHR",
			n, len(s.fills.buckets), s.held)
	}
	vs := s.obs.Registry.Values()
	if vs["memsim_core_mshr_occupancy"] != 1 || vs["memsim_core_prefetches_inflight"] != float64(n-1) {
		t.Fatalf("gauges read %v MSHRs and %v prefetches, want 1 and %d",
			vs["memsim_core_mshr_occupancy"], vs["memsim_core_prefetches_inflight"], n-1)
	}
	if h.Access(0x80000, trace.Load, nop).Accepted {
		t.Fatal("miss outside the region accepted with the MSHR held")
	}
	x := a + 5*uint64(s.cfg.L2Block)
	if f := s.fills.find(x); f == nil || f.kind != prefetchReq || !h.Access(x, trace.Load, nop).Accepted {
		t.Fatal("miss into a prefetched block did not merge")
	}
	stepUntil(t, s, func() bool { return s.fills.n == 0 })
	if s.held != 0 {
		t.Fatalf("%d MSHRs held with no fill in flight", s.held)
	}
}

// TestBufferedBlockNeedsNoMSHR checks that a block waiting in the
// separate prefetch buffer needs no MSHR: with the only one held, a
// software prefetch of it is done at once, building no request and
// counting no software prefetch fill, and a demand load of it hits.
func TestBufferedBlockNeedsNoMSHR(t *testing.T) {
	s, h := testSystem(t, func(c *Config) {
		c.MSHRs = 1
		c.SoftwarePrefetch = true
		c.Prefetch.BufferBlocks = 8
	})
	a := uint64(0x40000)
	s.installL2(a, false, true)
	if !s.pfbuffer.Contains(a) || s.l2.Contains(a) {
		t.Fatal("prefetched block not diverted to the buffer")
	}
	if !h.Access(0x80000, trace.Load, nop).Accepted || s.held != 1 {
		t.Fatal("miss elsewhere did not take the only MSHR")
	}
	built := 0
	observeRequests(s, func(*memctrl.Request) { built++ })
	if r := h.Access(a+8, trace.SWPrefetch, nil); !r.Accepted || !r.Done {
		t.Fatalf("software prefetch of a buffered block answered %+v", r)
	}
	if built != 0 || s.swPrefetches != 0 {
		t.Fatalf("software prefetch of a buffered block built %d requests, counted %d fills", built, s.swPrefetches)
	}
	if r := h.Access(a+16, trace.Load, nop); !r.Accepted || !r.Done || !s.l2.Contains(a) {
		t.Fatalf("demand load of a buffered block answered %+v with every MSHR held", r)
	}
}

// checkFillIndex drives a fillIndex and a Go map reference with the
// operations ops encodes, three bytes each: an opcode and a 16-bit
// block number. Opcodes 0 and 1 add the block's fill when it has none,
// 2 removes it (or, when it has none, a stranger for that block, which
// must fail), and 3 removes a stranger while the block may be indexed.
// After every operation the index must agree with the map on the block
// and on its size; at the end, sorted must list the map's fills.
func checkFillIndex(t *testing.T, ops []byte) {
	t.Helper()
	const blockBytes = 64
	x := newFillIndex(blockBytes, 1)
	ref := map[uint64]*missReq{}
	for ; len(ops) >= 3; ops = ops[3:] {
		block := uint64(binary.LittleEndian.Uint16(ops[1:])) * blockBytes
		switch ops[0] % 4 {
		case 0, 1:
			if ref[block] == nil {
				r := &missReq{block: block}
				x.add(r)
				ref[block] = r
			}
		case 2:
			if r := ref[block]; r != nil {
				if !x.remove(r) {
					t.Fatalf("remove of indexed block %#x failed", block)
				}
				delete(ref, block)
				if r.next != nil {
					t.Fatalf("removed fill of %#x still linked", block)
				}
				break
			}
			fallthrough
		case 3:
			if x.remove(&missReq{block: block}) {
				t.Fatalf("remove of a stranger for block %#x succeeded", block)
			}
		}
		if got := x.find(block); got != ref[block] {
			t.Fatalf("find(%#x) = %p, reference %p", block, got, ref[block])
		}
		if x.n != len(ref) {
			t.Fatalf("index holds %d fills, reference %d", x.n, len(ref))
		}
	}
	var got, want []uint64
	for _, r := range x.sorted() {
		got = append(got, r.block)
	}
	for b := range ref {
		want = append(want, b)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("sorted lists %#x, reference %#x", got, want)
	}
	for _, b := range want {
		if x.find(b) != ref[b] {
			t.Fatalf("find(%#x) lost after the last operation", b)
		}
	}
}

// TestFillIndexMatchesMap is the differential test of the fill index
// against a Go map: random sequences that first grow to a few hundred
// fills, doubling the table from 2 buckets to 256, then drain. Block
// numbers span 16 bits, so chains mix blocks that share low bits.
func TestFillIndexMatchesMap(t *testing.T) {
	for seed := range uint64(20) {
		rng := rand.New(rand.NewPCG(1, seed))
		var ops []byte
		for i := range 2000 {
			op := byte(rng.IntN(4))
			if i < 1000 && op >= 2 && rng.IntN(4) > 0 {
				op = 0 // mostly adds while growing
			}
			if i >= 1000 && op < 2 && rng.IntN(4) > 0 {
				op = 2 // mostly removes while draining
			}
			span := 1 << 16
			if rng.IntN(2) == 0 {
				span = 512 // revisit blocks, so removes find them
			}
			ops = binary.LittleEndian.AppendUint16(append(ops, op), uint16(rng.IntN(span)))
		}
		checkFillIndex(t, ops)
	}
	x := newFillIndex(64, 1)
	for i := range 300 {
		x.add(&missReq{block: uint64(i) * 64})
	}
	if len(x.buckets) != 256 {
		t.Fatalf("300 fills in %d buckets, want 256 after doubling at two fills per bucket", len(x.buckets))
	}
}

// FuzzFillIndex runs checkFillIndex on arbitrary operation strings.
func FuzzFillIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 1, 0, 3, 1, 0})
	// Adds of blocks whose numbers share their low bits, then removes.
	var ops []byte
	for i := range 40 {
		ops = binary.LittleEndian.AppendUint16(append(ops, 0), uint16(i*64))
	}
	for i := range 40 {
		ops = binary.LittleEndian.AppendUint16(append(ops, 2), uint16(i*64))
	}
	f.Add(ops)
	f.Fuzz(checkFillIndex)
}
