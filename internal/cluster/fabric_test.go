package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/sim"
)

// TestSecondCompletionPanics plants a second completion of every
// transfer: the handler runs twice per landing, and the second finds
// the transfer already back in the pool.
func TestSecondCompletionPanics(t *testing.T) {
	r, err := newRun(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	complete := r.completeCB
	r.completeCB = func(at sim.Time, arg any) {
		complete(at, arg)
		complete(at, arg)
	}
	err = r.loop(context.Background())
	if err == nil || !strings.Contains(err.Error(), "second completion of request") {
		t.Fatalf("got %v, want a second-completion panic", err)
	}
}

// fabricLedger tracks every transfer's crossings as they land. It
// records the first protocol violation it sees in err.
type fabricLedger struct {
	needFirst, first, complete map[[2]uint64]bool
	requests, firsts, noFirst  int
	err                        error
}

func newLedger() *fabricLedger {
	return &fabricLedger{
		needFirst: map[[2]uint64]bool{},
		first:     map[[2]uint64]bool{},
		complete:  map[[2]uint64]bool{},
	}
}

// observe checks one landing: a request crosses once, first data
// comes only for a request that asked for it and before its
// completion, and a completion comes once, after the first data it
// owes.
func (l *fabricLedger) observe(m *message) {
	if l.err == nil {
		l.err = l.check(m)
	}
}

func (l *fabricLedger) check(m *message) error {
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
// completion, and every transfer ever built is back in the pool, once,
// holding no request.
func (l *fabricLedger) finish(r *run) error {
	if l.err != nil {
		return l.err
	}
	if len(l.complete) != l.requests {
		return fmt.Errorf("%d requests but %d completions", l.requests, len(l.complete))
	}
	pooled := map[*transfer]bool{}
	for _, t := range r.free {
		if pooled[t] || t.req != nil {
			return fmt.Errorf("transfer %d of system %d pooled twice or still holding its request", t.id, t.Sys)
		}
		pooled[t] = true
	}
	if len(pooled) != r.built {
		return fmt.Errorf("%d of %d transfers back in the pool", len(pooled), r.built)
	}
	return nil
}

// TestFabricConservation checks the link protocol and the transfer
// pool: every request gets exactly one completion, first data arrives
// iff the request asked for it and always before its completion, and
// at termination every transfer is back in the pool.
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
			l := newLedger()
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
	r.tap = func(m *message) {
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
