package cpu

import (
	"fmt"
	"strings"
	"testing"

	"memsim/internal/sim"
	"memsim/internal/trace"
)

// scriptedMemory is a deterministic hierarchy for slot-reuse tests.
// Addresses with bit 0x100 set hit: they are always accepted and done
// after hitLat. Every other access is a miss that needs one of
// capacity MSHRs and completes after missLat (loads through their
// completion callback). The log records each accepted access and each
// load completion in order.
type scriptedMemory struct {
	sched    *sim.Scheduler
	capacity int
	hitLat   sim.Time
	missLat  sim.Time
	busy     int
	wake     func()
	log      []string
}

func (m *scriptedMemory) Access(addr uint64, kind trace.Kind, complete func(sim.Time)) Reply {
	now := m.sched.Now()
	if addr&0x100 != 0 {
		m.log = append(m.log, fmt.Sprintf("hit %v %#x@%v", kind, addr, now))
		return Reply{Accepted: true, Done: true, At: now + m.hitLat}
	}
	if m.busy >= m.capacity {
		return Reply{}
	}
	m.busy++
	m.log = append(m.log, fmt.Sprintf("miss %v %#x@%v", kind, addr, now))
	m.sched.Schedule(m.missLat, func() {
		m.busy--
		if complete != nil {
			m.log = append(m.log, fmt.Sprintf("done %#x@%v", addr, m.sched.Now()))
			complete(m.sched.Now())
		}
		m.wake()
	})
	return Reply{Accepted: true}
}

// runScripted drives ops through an 8-entry window over m and returns
// the access log followed by the finish time.
func runScripted(t *testing.T, m *scriptedMemory, ops []trace.Op) string {
	t.Helper()
	c, err := New(m.sched, m, trace.NewSlice(ops), Config{
		Width: 4, ROBSize: 8, StoreBuffer: 4, Clock: testClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.wake = c.Wake
	run(t, m.sched, c)
	return strings.Join(append(m.log, fmt.Sprintf("finish@%v", c.FinishTime())), "\n")
}

func checkLog(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("log:\n%s\nwant:\n%s", got, want)
	}
}

// A store refused for want of an MSHR retires while still blocked; its
// slot is reused by younger instructions before the retry, which must
// still send the store's own address, ahead of the load queued behind
// it.
func TestStoreRetiresWhileBlocked(t *testing.T) {
	m := &scriptedMemory{sched: sim.NewScheduler(), capacity: 1, hitLat: testClock.Cycles(2), missLat: 100 * sim.Nanosecond}
	ops := []trace.Op{
		{Addr: 0x1000, Kind: trace.Store},
		{Addr: 0x2000, Kind: trace.Store},
		{NonMem: 20, Addr: 0x3000, Kind: trace.Load},
		{NonMem: 3, Addr: 0x4100, Kind: trace.Load},
	}
	checkLog(t, runScripted(t, m, ops), `miss store 0x1000@0ps
miss store 0x2000@100ns
miss load 0x3000@200ns
hit load 0x4100@200ns
done 0x3000@300ns
finish@301ns`)
}

// A dependent load exactly one window behind its producer can only
// dispatch once the producer has retired, into the producer's own
// slot; it must issue at once rather than wait on the slot it is
// overwriting.
func TestDependentAfterProducerRetired(t *testing.T) {
	m := &scriptedMemory{sched: sim.NewScheduler(), capacity: 4, hitLat: testClock.Cycles(3), missLat: 80 * sim.Nanosecond}
	ops := []trace.Op{
		{Addr: 0x1100, Kind: trace.Load},
		{NonMem: 7, Addr: 0x2000, Kind: trace.Load, DependsOnPrev: true},
		{NonMem: 7, Addr: 0x3000, Kind: trace.Load, DependsOnPrev: true},
		{NonMem: 1, Addr: 0x4100, Kind: trace.Load, DependsOnPrev: true},
	}
	checkLog(t, runScripted(t, m, ops), `hit load 0x1100@0ps
miss load 0x2000@1.88ns
done 0x2000@81.9ns
miss load 0x3000@81.9ns
done 0x3000@162ns
hit load 0x4100@162ns
finish@164ns`)
}

// A chain of dependent loads longer than the window wraps the ring
// several times. Misses defer their dependent until the data returns;
// a hit that sat blocked behind a miss releases its deferred dependent
// at the hit's completion time.
func TestDependenceChainWrapsRing(t *testing.T) {
	m := &scriptedMemory{sched: sim.NewScheduler(), capacity: 1, hitLat: testClock.Cycles(2), missLat: 40 * sim.Nanosecond}
	var ops []trace.Op
	for i := 0; i < 12; i++ {
		addr := uint64(i+1) << 12
		if i%3 == 1 {
			addr |= 0x100
		}
		ops = append(ops, trace.Op{NonMem: 2, Addr: addr, Kind: trace.Load, DependsOnPrev: i > 0})
		if i%4 == 2 {
			ops = append(ops, trace.Op{Addr: addr + 0x40, Kind: trace.Load})
		}
	}
	checkLog(t, runScripted(t, m, ops), `miss load 0x1000@0ps
done 0x1000@40ns
miss load 0x3040@40ns
hit load 0x2100@40ns
done 0x3040@80ns
miss load 0x3000@80ns
done 0x3000@120ns
miss load 0x4000@120ns
done 0x4000@160ns
hit load 0x5100@160ns
miss load 0x7040@160ns
done 0x7040@200ns
miss load 0x6000@200ns
hit load 0x8100@200ns
done 0x6000@240ns
miss load 0x7000@240ns
done 0x7000@280ns
miss load 0x9000@280ns
hit load 0xb140@281ns
done 0x9000@320ns
miss load 0xa000@320ns
done 0xa000@360ns
miss load 0xc000@360ns
hit load 0xb100@360ns
done 0xc000@400ns
finish@400ns`)
}
