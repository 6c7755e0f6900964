package core

import (
	"fmt"
	"testing"

	"memsim/internal/cpu"
	"memsim/internal/memctrl"
	"memsim/internal/sim"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

// reqLife is one pooled request's accounting across its uses.
type reqLife struct {
	live      bool // built and not yet released
	completes int  // OnComplete firings in the current use
	hasDone   bool // the current use carries an OnComplete
}

// observingPort hands every request a system submits to observe
// before passing it on to the system's memory.
type observingPort struct {
	ExternalMemory
	observe func(*memctrl.Request)
}

func (p observingPort) Submit(r *memctrl.Request) {
	p.observe(r)
	p.ExternalMemory.Submit(r)
}

// observingSource hands every scheduled prefetch a controller pulls to
// observe before the controller issues it.
type observingSource struct {
	memctrl.PrefetchSource
	observe func(*memctrl.Request)
}

func (p observingSource) NextPrefetch(now sim.Time) (*memctrl.Request, bool) {
	r, ok := p.PrefetchSource.NextPrefetch(now)
	if ok {
		p.observe(r)
	}
	return r, ok
}

// observeRequests hands every request s builds to observe as it
// leaves for memory: through s's port, or, for a scheduled prefetch,
// pulled by a controller, which never passes the port.
func observeRequests(s *System, observe func(*memctrl.Request)) {
	s.port = observingPort{ExternalMemory: s.port, observe: observe}
	if s.cfg.Prefetch.Enabled && s.cfg.Prefetch.Scheduled {
		for g, c := range s.mem.ctrls {
			c.SetPrefetchSource(observingSource{PrefetchSource: &prefetchSource{sys: s, group: g}, observe: observe})
		}
	}
}

// TestRequestConservation checks the pooled miss path over every
// golden-matrix config: each request the hierarchy sends is issued
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
			observeRequests(sys, func(r *memctrl.Request) {
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
			})

			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			// Let the transfers still in flight at the end of the run
			// finish, then everything built must be back in the pool.
			sys.sched.Run()
			var issued uint64
			for _, c := range sys.mem.ctrls {
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

// countingMemory passes the core's accesses to the hierarchy and counts
// those it accepts and refuses. The workloads it runs emit no software
// prefetches, so every access is a load or a store.
type countingMemory struct {
	h                 *hierarchy
	accepted, refused uint64
}

func (m *countingMemory) Access(addr uint64, kind trace.Kind, complete func(sim.Time)) cpu.Reply {
	r := m.h.Access(addr, kind, complete)
	if r.Accepted {
		m.accepted++
	} else {
		m.refused++
	}
	return r
}

// TestAccessesCountedOnce checks that an access refused for want of an
// MSHR counts nowhere: on mcf with one and with two MSHRs, where the
// core retries refused misses many times, the L1 counts exactly the
// loads and stores the hierarchy accepted, and the L2 exactly the L1's
// misses.
func TestAccessesCountedOnce(t *testing.T) {
	for _, mshrs := range []int{1, 2} {
		t.Run(fmt.Sprintf("mshrs=%d", mshrs), func(t *testing.T) {
			s, h := testSystem(t, func(c *Config) { c.MSHRs = mshrs })
			p, err := workload.ByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			gen, err := p.Generator(1, false)
			if err != nil {
				t.Fatal(err)
			}
			// Swap in a core that issues through the counting memory; the
			// one New built runs an empty stream.
			mem := &countingMemory{h: h}
			cfg := s.cfg
			s.core, err = cpu.New(s.sched, mem, gen, cpu.Config{
				Width:        cfg.Width,
				SustainedIPC: cfg.SustainedIPC,
				ROBSize:      cfg.ROBSize,
				StoreBuffer:  cfg.StoreBuffer,
				Clock:        s.clock,
				MaxInstrs:    50_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			l1, l2 := s.l1.Stats(), s.l2.Stats()
			if mem.refused == 0 {
				t.Fatal("no access refused: the test drives no retries")
			}
			if l1.Accesses != mem.accepted {
				t.Errorf("L1 counted %d accesses for %d accepted (%d refusals)", l1.Accesses, mem.accepted, mem.refused)
			}
			if l2.Accesses != l1.Misses {
				t.Errorf("L2 counted %d accesses for %d L1 misses", l2.Accesses, l1.Misses)
			}
		})
	}
}
