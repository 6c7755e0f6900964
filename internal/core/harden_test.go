package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"memsim/internal/channel"
	"memsim/internal/harden"
	"memsim/internal/memctrl"
	"memsim/internal/sim"
	"memsim/internal/trace"
	"memsim/internal/workload"
)

// gccStream returns the instruction stream the hardening tests run.
func gccStream(t *testing.T) trace.Generator {
	t.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generator(0, false)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// hardenedRun builds and runs one system, returning the run error.
func hardenedRun(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
	sys, err := New(cfg, gccStream(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys.Run()
}

// faultySystem builds a gcc system the way New does, except that every
// channel is built on chCfg and requests leave through port(mem), a
// wrapper that can lose, repeat or hold them, instead of mem itself.
// The hardening monitors still inspect mem.
func faultySystem(t *testing.T, cfg Config, chCfg channel.Config, port func(*Memory) ExternalMemory) *System {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	mem, err := newMemory(sched, cfg, chCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := newSystem(cfg, gccStream(t), mem, port(mem), sched)
	if err != nil {
		t.Fatalf("newSystem: %v", err)
	}
	return sys
}

// faultPort stands between a system and its memory and counts the
// demand misses passing through: only those carry OnFirstData.
type faultPort struct {
	*Memory
	misses int
}

// miss reports whether r is a demand miss, counting it if so.
func (p *faultPort) miss(r *memctrl.Request) bool {
	if r.OnFirstData == nil {
		return false
	}
	p.misses++
	return true
}

// dropPort loses every demand miss from the after-th on: it never
// reaches a controller, so its completion never fires and its MSHR
// leaks. Losing the request before the controller, not its completion
// after, keeps the pooled missReq off the free list while its fill is
// still indexed.
type dropPort struct {
	faultPort
	after int
}

func (p *dropPort) Submit(r *memctrl.Request) {
	if p.miss(r) && p.misses >= p.after {
		return
	}
	p.Memory.Submit(r)
}

// dupPort completes the after-th demand miss twice.
type dupPort struct {
	faultPort
	after int
}

func (p *dupPort) Submit(r *memctrl.Request) {
	if p.miss(r) && p.misses == p.after {
		complete := r.OnComplete
		r.OnComplete = func(at sim.Time) {
			complete(at)
			complete(at)
		}
	}
	p.Memory.Submit(r)
}

// stuckPort models a bank that stops answering: from the after-th
// demand miss on, it never forwards a demand miss to that miss's bank.
type stuckPort struct {
	faultPort
	after int
	bank  *[3]int // group, device, bank once stuck
}

func (p *stuckPort) Submit(r *memctrl.Request) {
	if p.miss(r) {
		g, local := p.route(int(r.Sys), r.Addr)
		c := p.maprs[g].Map(local)
		bank := [3]int{g, c.Device, c.Bank}
		if p.misses == p.after {
			p.bank = &bank
		}
		if p.bank != nil && *p.bank == bank {
			return
		}
	}
	p.Memory.Submit(r)
}

// hidePort loses every demand miss from the after-th on, as dropPort
// does, and also retires the miss's fill. The MSHR it held stays
// counted but no fill names it, so the paranoid checker, which audits
// the fills in flight, cannot see the leak.
type hidePort struct {
	dropPort
	s *System
}

func (p *hidePort) Submit(r *memctrl.Request) {
	if p.miss(r) && p.misses >= p.after {
		p.s.fills.remove(p.s.fills.find(r.Addr))
		return
	}
	p.Memory.Submit(r)
}

// faultClasses are the corruption classes the hardening layer must
// catch, each planted into cfg's system from test code.
var faultClasses = []struct {
	name  string
	build func(t *testing.T, cfg Config) *System
}{
	{"drop-completion", func(t *testing.T, cfg Config) *System {
		return faultySystem(t, cfg, channelConfig(cfg), func(m *Memory) ExternalMemory {
			return &dropPort{faultPort: faultPort{Memory: m}, after: 3}
		})
	}},
	{"duplicate-fill", func(t *testing.T, cfg Config) *System {
		return faultySystem(t, cfg, channelConfig(cfg), func(m *Memory) ExternalMemory {
			return &dupPort{faultPort: faultPort{Memory: m}, after: 3}
		})
	}},
	{"stuck-bank", func(t *testing.T, cfg Config) *System {
		return faultySystem(t, cfg, channelConfig(cfg), func(m *Memory) ExternalMemory {
			return &stuckPort{faultPort: faultPort{Memory: m}, after: 3}
		})
	}},
	// A runaway refresh controller: each refresh holds every bus for
	// twice the sanity horizon, so completions recede faster than the
	// core can chase them.
	{"refresh-storm", func(t *testing.T, cfg Config) *System {
		chCfg := channelConfig(cfg)
		chCfg.RefreshInterval = sim.Microsecond
		chCfg.RefreshDuration = 2 * channel.SaneHorizon
		return faultySystem(t, cfg, chCfg, func(m *Memory) ExternalMemory { return m })
	}},
	// An MSHR no transfer will ever complete, silently shrinking the
	// miss capacity. s.capacity is block-aligned and one past the
	// highest real address, so no legitimate fill can complete it.
	{"phantom-mshr", func(t *testing.T, cfg Config) *System {
		s := faultySystem(t, cfg, channelConfig(cfg), func(m *Memory) ExternalMemory { return m })
		s.track(&missReq{s: s, kind: demandReq, block: s.capacity})
		return s
	}},
}

// faultClass returns the named class's builder.
func faultClass(t *testing.T, name string) func(t *testing.T, cfg Config) *System {
	for _, fc := range faultClasses {
		if fc.name == name {
			return fc.build
		}
	}
	t.Fatalf("no fault class %q", name)
	return nil
}

// runFault runs a system planted with a fault. A detector that misses
// the fault can leave its own periodic check as the only event, so the
// run never ends; a wall-clock bound turns that into a failure.
func runFault(sys *System) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err := sys.RunContext(ctx)
	return err
}

// TestFaultClassesAllCaught is the hardening layer's acceptance test:
// with the watchdog and the paranoid checker armed, every planted
// corruption class must abort the run with a structured error — no
// fault may complete silently.
func TestFaultClassesAllCaught(t *testing.T) {
	for _, fc := range faultClasses {
		t.Run(fc.name, func(t *testing.T) {
			cfg := Base()
			cfg.MaxInstrs = 30_000
			cfg.Harden = HardenConfig{WatchdogCycles: 50_000, Paranoid: true}
			err := runFault(fc.build(t, cfg))
			if err == nil {
				t.Fatalf("planted %s completed silently", fc.name)
			}
			var wderr *harden.WatchdogError
			var inverr *harden.InvariantError
			var correrr *harden.CorruptionError
			switch {
			case errors.As(err, &wderr), errors.As(err, &inverr), errors.As(err, &correrr):
			default:
				t.Fatalf("planted %s aborted with untyped error: %v", fc.name, err)
			}
			switch fc.name {
			case "duplicate-fill":
				if correrr == nil {
					t.Errorf("duplicate-fill should surface as CorruptionError, got %T", err)
				} else if msg := fmt.Sprint(correrr.PanicValue); !strings.Contains(msg, "MSHR complete for unknown block") {
					// The second fill must reach the MSHR table, not trip
					// over a recycled request or slot first.
					t.Errorf("duplicate-fill panicked with %q, want the MSHR table's unknown-block panic", msg)
				}
			case "phantom-mshr":
				if inverr == nil {
					t.Errorf("phantom-mshr should surface as InvariantError, got %T", err)
				}
			}
			// Every abort must carry a usable diagnostic dump.
			dump := ""
			switch {
			case wderr != nil:
				dump = wderr.Dump
			case inverr != nil:
				dump = inverr.Dump
			case correrr != nil:
				dump = correrr.Dump
			}
			for _, section := range []string{"=== cpu ===", "=== mshrs ===", "=== memctrl[0] ==="} {
				if !strings.Contains(dump, section) {
					t.Errorf("dump missing section %q:\n%s", section, dump)
				}
			}
		})
	}
}

// TestDropCompletionCaughtByWatchdogAlone proves the watchdog detects a
// hung hierarchy without any paranoid accounting enabled.
func TestDropCompletionCaughtByWatchdogAlone(t *testing.T) {
	cfg := Base()
	cfg.MaxInstrs = 30_000
	cfg.Harden = HardenConfig{WatchdogCycles: 50_000}
	err := runFault(faultClass(t, "drop-completion")(t, cfg))
	var wderr *harden.WatchdogError
	if !errors.As(err, &wderr) {
		t.Fatalf("want WatchdogError, got %v", err)
	}
	if wderr.WindowCycles != 50_000 {
		t.Errorf("WindowCycles = %d, want 50000", wderr.WindowCycles)
	}
	// The lost fill's MSHR entry leaks: its slot must still be held,
	// not recycled for a later miss.
	if !strings.Contains(wderr.Dump, "\n  block=") {
		t.Errorf("dump lists no leaked MSHR entry:\n%s", wderr.Dump)
	}
}

// TestStuckBankCaughtByParanoidAlone proves the invariant checker flags
// a bank that stopped answering without the watchdog.
func TestStuckBankCaughtByParanoidAlone(t *testing.T) {
	cfg := Base()
	cfg.MaxInstrs = 30_000
	cfg.Harden = HardenConfig{Paranoid: true}
	err := runFault(faultClass(t, "stuck-bank")(t, cfg))
	var inverr *harden.InvariantError
	if !errors.As(err, &inverr) {
		t.Fatalf("want InvariantError, got %v", err)
	}
}

// TestParanoidTickLetsHiddenLeakDrain checks that the paranoid checker
// does not keep a stuck run alive: with the watchdog off and a leak
// the checker cannot see, its tick stops re-arming once it is the only
// event left, and the run ends as a deadlock instead of ticking
// through simulated time until the wall-clock bound.
func TestParanoidTickLetsHiddenLeakDrain(t *testing.T) {
	cfg := Base()
	cfg.MaxInstrs = 30_000
	cfg.Harden = HardenConfig{Paranoid: true}
	p := &hidePort{dropPort: dropPort{after: 3}}
	sys := faultySystem(t, cfg, channelConfig(cfg), func(m *Memory) ExternalMemory {
		p.Memory = m
		return p
	})
	p.s = sys
	err := runFault(sys)
	if err == nil || !strings.Contains(err.Error(), "simulation deadlocked") {
		t.Fatalf("hidden MSHR leak ended with %v, want a deadlock", err)
	}
	if sys.held == 0 || sys.fills.n != 0 {
		t.Fatalf("%d MSHRs held and %d fills in flight, want a leak no fill names", sys.held, sys.fills.n)
	}
}

// TestHardenedRunIsDeterministic is the regression guard for the
// monitoring hooks: two identical runs must produce deep-equal results,
// and arming the watchdog and the paranoid checker (their events ride
// the same scheduler) must not perturb the simulation at all.
func TestHardenedRunIsDeterministic(t *testing.T) {
	cfg := Tuned()
	cfg.MaxInstrs = 20_000
	cfg.WarmupInstrs = 5_000

	run := func(h HardenConfig) Result {
		c := cfg
		c.Harden = h
		res, err := hardenedRun(t, c)
		if err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
		return res
	}

	plain1 := run(HardenConfig{})
	plain2 := run(HardenConfig{})
	if !reflect.DeepEqual(plain1, plain2) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", plain1, plain2)
	}
	guarded := run(HardenConfig{WatchdogCycles: 100_000, Paranoid: true, ParanoidEvery: 1000})
	if !reflect.DeepEqual(plain1, guarded) {
		t.Fatalf("monitoring hooks perturbed the run:\nplain:   %+v\nguarded: %+v", plain1, guarded)
	}
}

// TestParanoidCleanRunAllConfigs checks the invariant checker reports
// nothing on healthy runs across the interesting system shapes. The
// MSHR-starved shapes keep every MSHR busy most of the time, so many
// accesses are refused by the read-only probe of the L1, L2, prefetch
// buffer and fills in flight, and prefetches compete for the few free
// entries: the checker's MSHR-against-transfer cross-check runs there
// at its tightest.
func TestParanoidCleanRunAllConfigs(t *testing.T) {
	starved := func(n, buffer int) func() Config {
		return func() Config {
			c := Tuned()
			c.MSHRs = n
			c.Prefetch.BufferBlocks = buffer
			return c
		}
	}
	shapes := map[string]func() Config{
		"tuned-mshr1":  starved(1, 0),
		"tuned-mshr2":  starved(2, 0),
		"buffer-mshr2": starved(2, 32),
		"base":         Base,
		"tuned":        Tuned,
		"independent": func() Config {
			c := Tuned()
			c.Interleaving = "independent"
			return c
		},
		"buffer": func() Config {
			c := Tuned()
			c.Prefetch.BufferBlocks = 32
			return c
		},
	}
	for name, mk := range shapes {
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			cfg.MaxInstrs = 15_000
			cfg.Harden = HardenConfig{WatchdogCycles: 100_000, Paranoid: true, ParanoidEvery: 512}
			if _, err := hardenedRun(t, cfg); err != nil {
				t.Fatalf("healthy %s run aborted: %v", name, err)
			}
		})
	}
}
