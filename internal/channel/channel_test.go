package channel

import (
	"testing"
	"testing/quick"

	"memsim/internal/addrmap"
	"memsim/internal/dram"
	"memsim/internal/sim"
)

func newTestChannel(t *testing.T, channels, devices int) (*Channel, addrmap.Mapper) {
	t.Helper()
	g := addrmap.Geometry{Channels: channels, DevicesPerChannel: devices}
	ch, err := New(Config{Geometry: g, Timing: dram.Part800x40})
	if err != nil {
		t.Fatal(err)
	}
	m, err := addrmap.NewBase(g)
	if err != nil {
		t.Fatal(err)
	}
	return ch, m
}

func access(ch *Channel, m addrmap.Mapper, now sim.Time, addr, size uint64, class Class) Result {
	return ch.Access(now, addrmap.Spans(m, addr, size), class, false)
}

func TestContentionlessLatencies(t *testing.T) {
	// Section 2.2 latencies for a single contentionless dualoct access
	// on the 800-40 part: row miss 77.5 ns, precharged 57.5 ns, row
	// hit 40 ns.
	ch, m := newTestChannel(t, 1, 1)

	// First access: bank precharged -> 57.5 ns.
	r := access(ch, m, 0, 0, 16, Demand)
	if r.FirstData != 57500*sim.Picosecond {
		t.Errorf("precharged access data at %v, want 57.5ns", r.FirstData)
	}
	if r.RowHit {
		t.Error("first access reported as row hit")
	}

	// Same row again: row hit -> 40 ns from issue.
	now := r.LastData
	r = access(ch, m, now, 16, 16, Demand)
	if got := r.FirstData - now; got != 40*sim.Nanosecond {
		t.Errorf("row hit latency = %v, want 40ns", got)
	}
	if !r.RowHit {
		t.Error("same-row access not a row hit")
	}

	// Different row, same bank: full PRER+ACT+RD -> 77.5 ns.
	now = r.LastData
	rowStride := uint64(dram.RowBytes) * dram.BanksPerDevice // next row, same bank, base mapping
	r = access(ch, m, now, rowStride, 16, Demand)
	if got := r.FirstData - now; got != 77500*sim.Picosecond {
		t.Errorf("row miss latency = %v, want 77.5ns", got)
	}
}

func TestRowHitStatsByClass(t *testing.T) {
	ch, m := newTestChannel(t, 1, 1)
	access(ch, m, 0, 0, 16, Demand)       // miss
	access(ch, m, 0, 16, 16, Demand)      // hit
	access(ch, m, 0, 32, 16, Writeback)   // hit
	access(ch, m, 0, 48, 16, Prefetch)    // hit
	access(ch, m, 0, 1<<21, 16, Prefetch) // different bank: miss
	s := ch.Stats()
	if s.Accesses[Demand] != 2 || s.RowHits[Demand] != 1 {
		t.Errorf("demand stats = %d/%d, want 1/2", s.RowHits[Demand], s.Accesses[Demand])
	}
	if s.HitRate(Writeback) != 1.0 {
		t.Errorf("writeback hit rate = %v, want 1", s.HitRate(Writeback))
	}
	if s.Accesses[Prefetch] != 2 || s.RowHits[Prefetch] != 1 {
		t.Errorf("prefetch stats = %d/%d", s.RowHits[Prefetch], s.Accesses[Prefetch])
	}
}

func TestDataBusThroughput(t *testing.T) {
	// A 64-byte block is 4 dualocts: on one channel it needs 4 data
	// packets (40 ns of data bus); on four ganged channels, one packet.
	ch1, m1 := newTestChannel(t, 1, 1)
	r := access(ch1, m1, 0, 0, 64, Demand)
	if got := r.LastData - r.FirstData; got != 30*sim.Nanosecond {
		t.Errorf("1ch 64B spread = %v, want 30ns (4 packets)", got)
	}
	ch4, m4 := newTestChannel(t, 4, 1)
	r = access(ch4, m4, 0, 0, 64, Demand)
	if r.LastData != r.FirstData {
		t.Errorf("4ch 64B block took %v extra, want single packet", r.LastData-r.FirstData)
	}
}

func TestBackToBackRowHitsPipeline(t *testing.T) {
	// Consecutive row hits stream data packets back to back: the
	// second access's data lands one packet after the first.
	ch, m := newTestChannel(t, 1, 1)
	r1 := access(ch, m, 0, 0, 16, Demand)
	r2 := access(ch, m, 0, 16, 16, Demand)
	if got := r2.FirstData - r1.FirstData; got != 10*sim.Nanosecond {
		t.Errorf("pipelined row hits spaced %v, want 10ns", got)
	}
}

func TestNeighborPrechargeConflict(t *testing.T) {
	// Activating a bank flushes active adjacent banks (shared sense
	// amps) and pays their precharge first.
	ch, m := newTestChannel(t, 1, 1)
	bankStride := uint64(dram.RowBytes)                         // base mapping, 1 device: next bank
	access(ch, m, 0, 0, 16, Demand)                             // opens bank 0
	r := access(ch, m, sim.Microsecond, bankStride, 16, Demand) // opens bank 1, flushes bank 0
	if got := r.FirstData - sim.Microsecond; got != 77500*sim.Picosecond {
		t.Errorf("adjacent-conflict access latency = %v, want 77.5ns", got)
	}
	if ch.Stats().NeighborPrecharges != 1 {
		t.Errorf("NeighborPrecharges = %d, want 1", ch.Stats().NeighborPrecharges)
	}
	if !ch.RowOpen(m.Map(bankStride)) {
		t.Error("bank 1 not open after access")
	}
	if ch.RowOpen(m.Map(0)) {
		t.Error("bank 0 still open after neighbor activation")
	}
}

func TestNonAdjacentBanksCoexist(t *testing.T) {
	ch, m := newTestChannel(t, 1, 1)
	access(ch, m, 0, 0, 16, Demand)                       // bank 0
	access(ch, m, 0, 2*uint64(dram.RowBytes), 16, Demand) // bank 2
	if !ch.RowOpen(m.Map(0)) || !ch.RowOpen(m.Map(2*uint64(dram.RowBytes))) {
		t.Error("non-adjacent banks should both stay open")
	}
	if ch.Stats().NeighborPrecharges != 0 {
		t.Errorf("NeighborPrecharges = %d, want 0", ch.Stats().NeighborPrecharges)
	}
}

func TestClosedPagePolicy(t *testing.T) {
	g := addrmap.Geometry{Channels: 1, DevicesPerChannel: 1}
	ch, err := New(Config{Geometry: g, Timing: dram.Part800x40, ClosedPage: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := addrmap.NewBase(g)
	r := access(ch, m, 0, 0, 16, Demand)
	if ch.RowOpen(m.Map(0)) {
		t.Error("closed-page policy left row open")
	}
	// Next access to the same row pays ACT+RD (57.5 ns), never PRER.
	now := ch.NextFree()
	r = access(ch, m, now, 16, 16, Demand)
	if got := r.FirstData - now; got != 57500*sim.Picosecond {
		t.Errorf("closed-page re-access latency = %v, want 57.5ns", got)
	}
}

func TestIdleAndNextFree(t *testing.T) {
	ch, m := newTestChannel(t, 1, 1)
	if ch.NextFree() > 0 {
		t.Fatal("fresh channel not idle")
	}
	r := access(ch, m, 0, 0, 16, Demand)
	if ch.NextFree() <= r.FirstData-sim.Nanosecond {
		t.Error("channel idle while data in flight")
	}
	if ch.NextFree() > r.LastData {
		t.Errorf("channel not idle at LastData; NextFree = %v", ch.NextFree())
	}
	if ch.NextFree() != r.LastData {
		t.Errorf("NextFree = %v, want %v", ch.NextFree(), r.LastData)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	ch, m := newTestChannel(t, 1, 1)
	access(ch, m, 0, 0, 64, Demand) // ACT + 4x(RD+data): no PRER from cold
	s := ch.Stats()
	if s.RowPackets != 1 {
		t.Errorf("RowPackets = %d, want 1 (ACT only)", s.RowPackets)
	}
	if s.ColPackets != 4 || s.DataPackets != 4 {
		t.Errorf("Col/Data packets = %d/%d, want 4/4", s.ColPackets, s.DataPackets)
	}
	if s.DataBusy != 40*sim.Nanosecond {
		t.Errorf("DataBusy = %v, want 40ns", s.DataBusy)
	}
	elapsed := 400 * sim.Nanosecond
	if got := s.DataUtilization(elapsed); got != 0.1 {
		t.Errorf("DataUtilization = %v, want 0.1", got)
	}
	if got := s.CommandUtilization(elapsed); got != float64(50*sim.Nanosecond)/float64(2*elapsed) {
		t.Errorf("CommandUtilization = %v", got)
	}
}

func TestMultiSpanBlock(t *testing.T) {
	// An 8KB block on one channel covers 4 device-striped rows under
	// the base mapping (1 device: 4 rows in ... bank stripes).
	ch, m := newTestChannel(t, 1, 2)
	spans := addrmap.Spans(m, 0, 8192)
	if len(spans) < 2 {
		t.Fatalf("8KB on 1ch produced %d spans, want >= 2", len(spans))
	}
	r := ch.Access(0, spans, Demand, false)
	if r.Spans != len(spans) {
		t.Errorf("Result.Spans = %d, want %d", r.Spans, len(spans))
	}
	// 8KB = 512 dualocts: data bus alone needs 512 packets = 5.12 us.
	if r.LastData < 5120*sim.Nanosecond {
		t.Errorf("8KB transfer finished at %v, faster than data bus allows", r.LastData)
	}
}

func TestWriteSharesReadTiming(t *testing.T) {
	chR, m := newTestChannel(t, 1, 1)
	chW, _ := newTestChannel(t, 1, 1)
	r := chR.Access(0, addrmap.Spans(m, 0, 64), Demand, false)
	w := chW.Access(0, addrmap.Spans(m, 0, 64), Writeback, true)
	if r.FirstData != w.FirstData || r.LastData != w.LastData {
		t.Errorf("write timing differs from read: %+v vs %+v", w, r)
	}
}

func TestAccessPanicsOnEmptySpans(t *testing.T) {
	ch, _ := newTestChannel(t, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Access with no spans did not panic")
		}
	}()
	ch.Access(0, nil, Demand, false)
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Geometry: addrmap.Geometry{Channels: 3, DevicesPerChannel: 1}, Timing: dram.Part800x40}); err == nil {
		t.Error("New accepted non-power-of-two channels")
	}
	if _, err := New(Config{Geometry: addrmap.Geometry{Channels: 1, DevicesPerChannel: 1}}); err == nil {
		t.Error("New accepted zero timing")
	}
}

// Property: timing results are internally consistent for arbitrary
// access sequences: Start <= FirstData <= LastData, data packets never
// overlap, and time never runs backwards.
func TestPropertyTimingMonotonic(t *testing.T) {
	g := addrmap.Geometry{Channels: 2, DevicesPerChannel: 2}
	m, _ := addrmap.NewXOR(g)
	f := func(addrs []uint32, sizes []uint8) bool {
		ch, err := New(Config{Geometry: g, Timing: dram.Part800x40})
		if err != nil {
			return false
		}
		now := sim.Time(0)
		var lastData sim.Time
		for i, a := range addrs {
			size := uint64(64)
			if i < len(sizes) {
				size = 64 << (uint64(sizes[i]) % 4)
			}
			addr := uint64(a) &^ (size - 1)
			r := ch.Access(now, addrmap.Spans(m, addr, size), Demand, false)
			if r.Start < now || r.FirstData < r.Start || r.LastData < r.FirstData {
				return false
			}
			// Data bus serialization: this access's first data packet
			// cannot complete before the previous access's... packets
			// it shares the bus with. LastData must be non-decreasing.
			if r.LastData < lastData {
				return false
			}
			lastData = r.LastData
			now += 5 * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the adjacency invariant holds through arbitrary channel
// traffic (no two adjacent banks simultaneously open).
func TestPropertyChannelAdjacency(t *testing.T) {
	g := addrmap.Geometry{Channels: 1, DevicesPerChannel: 1}
	m, _ := addrmap.NewBase(g)
	f := func(addrs []uint32) bool {
		ch, _ := New(Config{Geometry: g, Timing: dram.Part800x40})
		for _, a := range addrs {
			ch.Access(ch.NextFree(), addrmap.Spans(m, uint64(a)&^63, 64), Demand, false)
			for b := 0; b < dram.BanksPerDevice-1; b++ {
				openA := bankOpen(ch, m, b)
				openB := bankOpen(ch, m, b+1)
				if openA && openB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// bankOpen probes whether any row is open in the bank by checking all
// rows via the device state (test helper using RowOpen with the base
// mapping's row-stride structure).
func bankOpen(ch *Channel, m addrmap.Mapper, bank int) bool {
	for row := 0; row < dram.RowsPerBank; row++ {
		addr := uint64(bank)*dram.RowBytes + uint64(row)*dram.RowBytes*dram.BanksPerDevice
		if ch.RowOpen(m.Map(addr)) {
			return true
		}
	}
	return false
}
