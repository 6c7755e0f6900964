package core

import (
	"testing"

	"memsim/internal/channel"
	"memsim/internal/memctrl"
	"memsim/internal/obs"
	"memsim/internal/workload"
)

// Event counts for the allocation pin: warm long enough that every
// pool, free list and queue has reached its working size, then measure
// a fixed stretch of scheduler events.
const (
	allocWarmEvents = 400_000
	allocStepEvents = 20_000
)

// countingPolicy wraps an issue policy and counts the contested
// decisions it is asked to make.
type countingPolicy struct {
	memctrl.IssuePolicy
	n int
}

func (p *countingPolicy) Pick(q []*memctrl.Request, rowOpen func(*memctrl.Request) bool) int {
	p.n++
	return p.IssuePolicy.Pick(q, rowOpen)
}

// TestWarmedSystemAllocatesNothing pins the hot path's allocation
// budget at zero: once warm, a Base and a Tuned system step through
// instructions, cache misses, writebacks, prefetches and controller
// decisions without a single heap allocation. The Tuned system is also
// run under independent interleaving, whose controllers route prefetch
// candidates to each other through per-group buffers. The
// counterfactual system has one channel, so its queues make contested
// decisions, and traces every decision on both policy axes.
//
// The workload is gcc, whose queues reach a steady size. mcf would not
// do: its back-to-back demand misses starve writebacks for the whole
// run, so the writeback queue (and with it the number of live pooled
// requests) grows without bound, and every newly queued writeback is a
// genuinely new object.
func TestWarmedSystemAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"base", Base()},
		{"tuned", Tuned()},
		{"tuned-independent", func() Config {
			c := Tuned()
			c.Interleaving = "independent"
			return c
		}()},
		{"counterfactual", func() Config {
			c := Tuned()
			c.Channels = 1
			c.SchedPolicy = "frfcfs"
			c.Counterfactual = true
			c.Obs = obs.Config{Trace: true}
			return c
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := workload.ByName("gcc")
			if err != nil {
				t.Fatal(err)
			}
			gen, err := p.Generator(0, false)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := New(tc.cfg, gen)
			if err != nil {
				t.Fatal(err)
			}
			// Windows count fired events, not Steps: one Step may
			// carry many core cycles run inline.
			step := func(n int) {
				for end := sys.sched.EventsFired() + uint64(n); sys.sched.EventsFired() < end; {
					if !sys.sched.Step() {
						t.Fatalf("scheduler drained after %d events", sys.sched.EventsFired())
					}
				}
			}
			counter := &countingPolicy{IssuePolicy: sys.mem.ctrls[0].Policy()}
			sys.mem.ctrls[0].SetPolicy(counter)
			step(allocWarmEvents)
			before := sys.mem.ctrls[0].Stats()
			decisions := counter.n
			if got := testing.AllocsPerRun(5, func() { step(allocStepEvents) }); got != 0 {
				t.Errorf("%v allocations per %d events, want 0", got, allocStepEvents)
			}
			// The window must have exercised the miss path it pins.
			issued := sys.mem.ctrls[0].Stats().Delta(before).Issued
			if issued[channel.Demand] == 0 || issued[channel.Writeback] == 0 {
				t.Errorf("measured window issued %v: want demand and writeback traffic", issued)
			}
			if tc.cfg.Prefetch.Enabled && issued[channel.Prefetch] == 0 {
				t.Errorf("measured window issued %v: want prefetch traffic", issued)
			}
			if tc.cfg.Counterfactual && counter.n == decisions {
				t.Error("measured window made no contested decision")
			}
		})
	}
}
