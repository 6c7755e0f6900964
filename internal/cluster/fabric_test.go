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

// startRun builds cfg's run with its lookahead primed, so a test can
// drive it one epoch at a time.
func startRun(t *testing.T, cfg Config) *run {
	t.Helper()
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.advance(0)
	return r
}

// mustEpoch runs one epoch and reports whether the cluster completed.
func mustEpoch(t *testing.T, r *run) bool {
	t.Helper()
	done, err := r.epoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return done
}

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
	sh := newSystemShard(0, "sys0-test", DefaultLinkLatency)
	sh.sched = sim.NewScheduler()
	completed := 0
	submit := func() message {
		sh.Submit(&memctrl.Request{
			Addr:        0x1000,
			Size:        64,
			OnFirstData: func(sim.Time) {},
			OnComplete:  func(sim.Time) { completed++ },
		})
		m := sh.outbox.msgs[len(sh.outbox.msgs)-1]
		sh.outbox.msgs = sh.outbox.msgs[:0]
		return m
	}
	deliver := func(req message, kind msgKind) {
		sh.inject(&message{
			DeliverAt: sh.sched.Now() + DefaultLinkLatency,
			Src:       1,
			Kind:      kind,
			Slot:      req.Slot,
			Sys:       req.Sys,
			ID:        req.ID,
		})
		sh.sched.Run()
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

// fabricLedger tracks every transfer's messages across barriers.
type fabricLedger struct {
	needFirst, first, complete map[[2]uint64]bool
	requests, firsts, noFirst  int
}

func (l *fabricLedger) observe(t *testing.T, m *message) {
	t.Helper()
	{
		key := [2]uint64{uint64(m.Sys), m.ID}
		_, known := l.needFirst[key]
		switch m.Kind {
		case msgRequest:
			if known {
				t.Fatalf("request %v sent twice", key)
			}
			l.needFirst[key] = m.NeedFirst
			l.requests++
			if !m.NeedFirst {
				l.noFirst++
			}
		case msgFirstData:
			if !known || !l.needFirst[key] || l.first[key] || l.complete[key] {
				t.Fatalf("first data for %v: known=%v needFirst=%v seen=%v completed=%v",
					key, known, l.needFirst[key], l.first[key], l.complete[key])
			}
			l.first[key] = true
			l.firsts++
		case msgComplete:
			if !known || l.complete[key] || l.first[key] != l.needFirst[key] {
				t.Fatalf("completion for %v: known=%v completed=%v first=%v needFirst=%v",
					key, known, l.complete[key], l.first[key], l.needFirst[key])
			}
			l.complete[key] = true
		}
	}
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
			r := startRun(t, mix.cfg)
			l := &fabricLedger{
				needFirst: map[[2]uint64]bool{},
				first:     map[[2]uint64]bool{},
				complete:  map[[2]uint64]bool{},
			}
			r.tap = func(m *message) { l.observe(t, m) }
			for done := false; !done; {
				done = mustEpoch(t, r)
			}

			if l.firsts == 0 || (mix.name == "mix4" && l.noFirst == 0) {
				t.Fatalf("vacuous run: %d requests, %d first-data messages, %d requests without first data",
					l.requests, l.firsts, l.noFirst)
			}
			if len(l.complete) != l.requests {
				t.Errorf("%d requests but %d completions", l.requests, len(l.complete))
			}
			for _, sh := range r.systems {
				if sh.live != 0 || len(sh.freeSlots) != len(sh.pending) {
					t.Errorf("%s: %d live pending slots, %d of %d free", sh.label, sh.live, len(sh.freeSlots), len(sh.pending))
				}
			}
			if len(r.mem.reqs) != r.mem.reqsBuilt {
				t.Errorf("memory shard: %d of %d fabric requests free", len(r.mem.reqs), r.mem.reqsBuilt)
			}
		})
	}
}

// Epoch counts for the allocation pin: warm until every pool, free
// list, outbox and controller queue has reached its working size, then
// measure a fixed stretch of epochs.
const (
	allocWarmEpochs = 200_000
	allocStepEpochs = 2_000
)

// TestWarmedClusterAllocatesNothing pins the cluster hot path at zero
// allocations: once warm, a 4-system cluster runs epochs — core steps, requests crossing the barrier, arbitration,
// completions coming back — without a single heap allocation.
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
	r := startRun(t, cfg)
	step := func(n int) {
		for i := 0; i < n; i++ {
			if mustEpoch(t, r) {
				t.Fatalf("cluster finished after %d epochs", r.epochs)
			}
		}
	}
	step(allocWarmEpochs)

	var requests, completions int
	r.tap = func(m *message) {
		switch m.Kind {
		case msgRequest:
			requests++
		case msgComplete:
			completions++
		}
	}
	if got := testing.AllocsPerRun(5, func() {
		for i := 0; i < allocStepEpochs; i++ {
			mustEpoch(t, r)
		}
	}); got != 0 {
		t.Errorf("%v allocations per %d epochs, want 0", got, allocStepEpochs)
	}
	// The window must have carried the traffic it pins.
	if requests == 0 || completions == 0 {
		t.Errorf("measured window carried %d requests and %d completions", requests, completions)
	}
}

// TestMessageSize pins the wire form at 48 bytes: the barrier and the
// deliveries touch every message, so its size is per-message cost.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got > 48 {
		t.Fatalf("message is %d bytes, want at most 48", got)
	}
}
