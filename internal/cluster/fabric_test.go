package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"memsim/internal/core"
	"memsim/internal/memctrl"
	"memsim/internal/sim"
)

// expectPanic runs f and checks that it panics with a message holding
// every one of want.
func expectPanic(t *testing.T, f func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		p := recover()
		if p == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		for _, w := range want {
			if msg := fmt.Sprint(p); !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	f()
}

// TestStaleCompletionPanics pins the pending table's protocol check: a
// completion must find its own request in the slot it names. A
// duplicate msgComplete finds the slot empty, and a stale msgFirstData
// finds it reused by a later request; both are violations.
func TestStaleCompletionPanics(t *testing.T) {
	r := &run{cfg: Config{LinkLatency: DefaultLinkLatency}, sched: sim.NewScheduler()}
	sh := &systemShard{r: r, label: "sys0-test"}
	r.systems = []*systemShard{sh}
	// Requests stop at the link, where the test reads them back;
	// completions go through production's delivery.
	var sent message
	r.deliverCB = func(at sim.Time, arg any) {
		if m := arg.(*message); m.Kind == msgRequest {
			sent = *m
		} else {
			r.deliver(at, m)
		}
	}
	completed := 0
	submit := func() message {
		sh.Submit(&memctrl.Request{
			Addr:        0x1000,
			Size:        64,
			OnFirstData: func(sim.Time) {},
			OnComplete:  func(sim.Time) { completed++ },
		})
		r.sched.Run()
		return sent
	}
	deliver := func(req message, kind msgKind) {
		r.send(message{Kind: kind, Slot: req.Slot, Sys: req.Sys, ID: req.ID})
		r.sched.Run()
	}

	first := submit()
	deliver(first, msgFirstData)
	deliver(first, msgComplete)
	if completed != 1 || sh.live != 0 {
		t.Fatalf("after one completion: completed=%d live=%d, want 1 and 0", completed, sh.live)
	}
	expectPanic(t, func() { deliver(first, msgComplete) },
		"sys0-test", fmt.Sprintf("request %d ", first.ID), fmt.Sprintf("kind %d", msgComplete))

	second := submit()
	if second.Slot != first.Slot || second.ID == first.ID {
		t.Fatalf("second request got slot %d id %d, want the reused slot %d under a new id",
			second.Slot, second.ID, first.Slot)
	}
	expectPanic(t, func() { deliver(first, msgFirstData) },
		"sys0-test", fmt.Sprintf("request %d ", first.ID), fmt.Sprintf("kind %d", msgFirstData))
	// The stale message must not have touched the live occupant.
	deliver(second, msgComplete)
	if completed != 2 || sh.live != 0 {
		t.Fatalf("after second completion: completed=%d live=%d, want 2 and 0", completed, sh.live)
	}
}

// fabricLedger tracks every transfer's messages as they are
// delivered. It records the first protocol violation it sees in err.
type fabricLedger struct {
	link                       sim.Time
	needFirst, first, complete map[[2]uint64]bool
	requests, firsts, noFirst  int
	err                        error
}

func newLedger(link sim.Time) *fabricLedger {
	return &fabricLedger{
		link:      link,
		needFirst: map[[2]uint64]bool{},
		first:     map[[2]uint64]bool{},
		complete:  map[[2]uint64]bool{},
	}
}

// observe checks one delivery: it fires one link latency after its
// send, a request is sent once, first data comes only for a request
// that asked for it and before its completion, and a completion comes
// once, after the first data it owes.
func (l *fabricLedger) observe(at sim.Time, m *message) {
	if l.err == nil {
		l.err = l.check(at, m)
	}
}

func (l *fabricLedger) check(at sim.Time, m *message) error {
	if at != m.Sent+l.link {
		return fmt.Errorf("message %+v sent at %dps delivered at %dps, want %dps", *m, m.Sent, at, m.Sent+l.link)
	}
	key := [2]uint64{uint64(m.Sys), m.ID}
	_, known := l.needFirst[key]
	switch m.Kind {
	case msgRequest:
		if known {
			return fmt.Errorf("request %v sent twice", key)
		}
		l.needFirst[key] = m.NeedFirst
		l.requests++
		if !m.NeedFirst {
			l.noFirst++
		}
	case msgFirstData:
		if !known || !l.needFirst[key] || l.first[key] || l.complete[key] {
			return fmt.Errorf("first data for %v: known=%v needFirst=%v seen=%v completed=%v",
				key, known, l.needFirst[key], l.first[key], l.complete[key])
		}
		l.first[key] = true
		l.firsts++
	case msgComplete:
		if !known || l.complete[key] || l.first[key] != l.needFirst[key] {
			return fmt.Errorf("completion for %v: known=%v completed=%v first=%v needFirst=%v",
				key, known, l.complete[key], l.first[key], l.needFirst[key])
		}
		l.complete[key] = true
	}
	return nil
}

// finish checks the end state of a finished run: every request got its
// completion, no pending slot is occupied, and every pooled fabric
// request is back on its free list.
func (l *fabricLedger) finish(r *run) error {
	if l.err != nil {
		return l.err
	}
	if len(l.complete) != l.requests {
		return fmt.Errorf("%d requests but %d completions", l.requests, len(l.complete))
	}
	for _, sh := range r.systems {
		if sh.live != 0 || len(sh.freeSlots) != len(sh.pending) {
			return fmt.Errorf("%s: %d live pending slots, %d of %d free", sh.label, sh.live, len(sh.freeSlots), len(sh.pending))
		}
	}
	if len(r.mem.reqs) != r.mem.reqsBuilt {
		return fmt.Errorf("memory shard: %d of %d fabric requests free", len(r.mem.reqs), r.mem.reqsBuilt)
	}
	return nil
}

// TestFabricConservation checks the fabric's message protocol and its
// pools: every request gets exactly one completion,
// first data arrives iff the request asked for it and always before
// its completion, and at termination no pending slot is occupied and
// every pooled fabric request is back on its free list.
func TestFabricConservation(t *testing.T) {
	// The 4-system mix runs the tuned configuration, so region
	// prefetches — transfers that want no first-data message — cross
	// the fabric beside the demand misses.
	tuned := core.Tuned()
	mix4 := Config{
		Systems: []SystemSpec{
			{Bench: "swim", Seed: 1, Config: &tuned},
			{Bench: "facerec", Seed: 2, Config: &tuned},
			{Bench: "twolf", Seed: 3, Config: &tuned},
			{Bench: "gcc", Seed: 4, Config: &tuned},
		},
		Channels:     2,
		MaxInstrs:    6_000,
		WarmupInstrs: 1_000,
	}
	for _, mix := range []struct {
		name string
		cfg  Config
	}{{"mcf+swim", testConfig()}, {"mix4", mix4}} {
		t.Run(mix.name, func(t *testing.T) {
			r, err := newRun(mix.cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := newLedger(r.cfg.LinkLatency)
			r.tap = l.observe
			if err := r.loop(context.Background()); err != nil {
				t.Fatal(err)
			}
			if l.firsts == 0 || (mix.name == "mix4" && l.noFirst == 0) {
				t.Fatalf("vacuous run: %d requests, %d first-data messages, %d requests without first data",
					l.requests, l.firsts, l.noFirst)
			}
			if err := l.finish(r); err != nil {
				t.Error(err)
			}
		})
	}
}

// Event counts for the allocation pin: warm until every pool, free
// list and controller queue has reached its working size, then measure
// a fixed stretch of events.
const (
	allocWarmEvents = 2_000_000
	allocStepEvents = 20_000
)

// TestWarmedClusterAllocatesNothing pins the cluster hot path at zero
// allocations: once warm, a 4-system cluster fires events — core
// steps, requests crossing the link, arbitration, completions coming
// back — without a single heap allocation.
//
// The mix leaves out mcf: its back-to-back demand misses starve
// writebacks (see internal/core/alloc_test.go), so its queues, and the
// pools behind them, grow for the whole run.
func TestWarmedClusterAllocatesNothing(t *testing.T) {
	cfg := Config{
		Systems: []SystemSpec{
			{Bench: "gcc", Seed: 1},
			{Bench: "twolf", Seed: 2},
			{Bench: "gzip", Seed: 3},
			{Bench: "facerec", Seed: 4},
		},
		Channels:     4,
		MaxInstrs:    50_000_000,
		WarmupInstrs: 1_000,
	}
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			if !r.sched.Step() {
				t.Fatalf("cluster drained after %d events", r.sched.EventsFired())
			}
		}
	}
	step(allocWarmEvents)

	var requests, completions int
	r.tap = func(_ sim.Time, m *message) {
		switch m.Kind {
		case msgRequest:
			requests++
		case msgComplete:
			completions++
		}
	}
	if got := testing.AllocsPerRun(5, func() { step(allocStepEvents) }); got != 0 {
		t.Errorf("%v allocations per %d events, want 0", got, allocStepEvents)
	}
	// The window must have carried the traffic it pins.
	if requests == 0 || completions == 0 {
		t.Errorf("measured window carried %d requests and %d completions", requests, completions)
	}
}

// TestMessageSize pins the wire form at 48 bytes: send, delivery and
// the digest touch every message, so its size is per-message cost.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got > 48 {
		t.Fatalf("message is %d bytes, want at most 48", got)
	}
}
