package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/harden"
	"memsim/internal/harden/inject"
	"memsim/internal/workload"
)

// hardenedRun builds and runs one system, returning the run error.
func hardenedRun(t *testing.T, cfg Config) (Result, error) {
	t.Helper()
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
		t.Fatalf("New: %v", err)
	}
	return sys.Run()
}

// TestFaultClassesAllCaught is the hardening layer's acceptance test:
// with the watchdog and the paranoid checker armed, every injected
// corruption class must abort the run with a structured error — no
// fault may complete silently.
func TestFaultClassesAllCaught(t *testing.T) {
	for _, class := range inject.Classes() {
		t.Run(class.String(), func(t *testing.T) {
			cfg := Base()
			cfg.MaxInstrs = 30_000
			cfg.Harden = HardenConfig{
				WatchdogCycles: 50_000,
				Paranoid:       true,
				Inject:         inject.Plan{Class: class, After: 3},
			}
			_, err := hardenedRun(t, cfg)
			if err == nil {
				t.Fatalf("injected %s completed silently", class)
			}
			var wderr *harden.WatchdogError
			var inverr *harden.InvariantError
			var correrr *harden.CorruptionError
			switch {
			case errors.As(err, &wderr), errors.As(err, &inverr), errors.As(err, &correrr):
			default:
				t.Fatalf("injected %s aborted with untyped error: %v", class, err)
			}
			switch class {
			case inject.DuplicateFill:
				if correrr == nil {
					t.Errorf("duplicate-fill should surface as CorruptionError, got %T", err)
				} else if msg := fmt.Sprint(correrr.PanicValue); !strings.Contains(msg, "MSHR complete for unknown block") {
					// The second fill must reach the MSHR table, not trip
					// over a recycled request or slot first.
					t.Errorf("duplicate-fill panicked with %q, want the MSHR table's unknown-block panic", msg)
				}
			case inject.PhantomMSHR:
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
	cfg.Harden = HardenConfig{
		WatchdogCycles: 50_000,
		Inject:         inject.Plan{Class: inject.DropCompletion},
	}
	_, err := hardenedRun(t, cfg)
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
// an insane bank timestamp without the watchdog.
func TestStuckBankCaughtByParanoidAlone(t *testing.T) {
	cfg := Base()
	cfg.MaxInstrs = 30_000
	cfg.Harden = HardenConfig{
		Paranoid: true,
		Inject:   inject.Plan{Class: inject.StuckBank},
	}
	_, err := hardenedRun(t, cfg)
	var inverr *harden.InvariantError
	if !errors.As(err, &inverr) {
		t.Fatalf("want InvariantError, got %v", err)
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
