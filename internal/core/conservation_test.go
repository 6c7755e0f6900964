package core

import (
	"testing"

	"memsim/internal/memctrl"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// reqLife is one pooled request's accounting across its uses.
type reqLife struct {
	live      bool // built and not yet released
	completes int  // OnComplete firings in the current use
	hasDone   bool // the current use carries an OnComplete
}

// TestRequestConservation checks the pooled miss path over every
// golden-matrix config: each request the hierarchy builds is issued
// exactly once, fires OnComplete exactly once (when it has one) before
// its release, is released exactly once, and is never handed out again
// while still queued or in flight.
func TestRequestConservation(t *testing.T) {
	for _, gc := range goldenConfigs() {
		t.Run(gc.Name, func(t *testing.T) {
			cfg := gc.Cfg
			cfg.MaxInstrs = goldenInstrs
			cfg.WarmupInstrs = goldenInstrs
			p, err := workload.ByName("gcc")
			if err != nil {
				t.Fatal(err)
			}
			gen, err := p.Generator(0, false)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := New(cfg, gen)
			if err != nil {
				t.Fatal(err)
			}

			lives := map[*memctrl.Request]*reqLife{}
			var built, released int
			sys.onNewRequest = func(r *memctrl.Request) {
				l := lives[r]
				if l == nil {
					l = &reqLife{}
					lives[r] = l
				}
				if l.live {
					t.Fatalf("request at %#x handed out again while still queued or in flight", r.Addr)
				}
				*l = reqLife{live: true, hasDone: r.OnComplete != nil}
				built++
				if done := r.OnComplete; done != nil {
					r.OnComplete = func(at sim.Time) {
						l.completes++
						done(at)
					}
				}
				release := r.OnRelease
				r.OnRelease = func(r *memctrl.Request) {
					if !l.live {
						t.Fatalf("request at %#x released twice", r.Addr)
					}
					if l.hasDone && l.completes != 1 {
						t.Fatalf("request at %#x released after %d completions, want 1", r.Addr, l.completes)
					}
					l.live = false
					released++
					release(r)
				}
			}

			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			// Let the transfers still in flight at the end of the run
			// finish, then everything built must be back in the pool.
			sys.sched.Run()
			var issued uint64
			for _, c := range sys.ctrls {
				for _, n := range c.Stats().Issued {
					issued += n
				}
			}
			if built == 0 || released != built || issued != uint64(built) {
				t.Errorf("built %d requests, released %d, controllers issued %d", built, released, issued)
			}
			for _, l := range lives {
				if l.live {
					t.Errorf("request still live after drain")
					break
				}
			}
		})
	}
}
