package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"memsim/internal/harden"
	"memsim/internal/workload"
)

// These tests pin down the interplay between RunContext cancellation
// and the armed forward-progress watchdog: both stop a run through the
// same abort path, and a cancellation landing inside a watchdog window
// must surface as the cancellation — never as a spurious
// no-forward-progress WatchdogError with a diagnostic dump. The
// service (cmd/memsimd) leans on this: it arms the watchdog on every
// job and cancels jobs for drains, deadlines, and client requests.

// watchdogSystem builds a hardened system over a long gcc run.
func watchdogSystem(t *testing.T, instrs, warmup uint64) *System {
	t.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := p.Generator(0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Base()
	cfg.MaxInstrs = instrs
	cfg.WarmupInstrs = warmup
	// The window is far above the 4096-event cancellation poll stride,
	// so a healthy run never trips it; it exists to prove cancellation
	// does not masquerade as a watchdog abort.
	cfg.Harden = HardenConfig{WatchdogCycles: 50_000}
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestWatchdogArmedCancelBeforeRun(t *testing.T) {
	sys := watchdogSystem(t, 200_000, 400_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := sys.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var wderr *harden.WatchdogError
	if errors.As(err, &wderr) {
		t.Fatalf("pre-canceled run produced a watchdog dump:\n%s", wderr.Dump)
	}
	if sys.fatal != nil {
		t.Fatalf("cancellation recorded as a fatal hardening failure: %v", sys.fatal)
	}
}

func TestWatchdogArmedCancelMidRun(t *testing.T) {
	// A budget far larger than the cancel delay can simulate, so the
	// cancellation always lands mid-run, inside some watchdog window.
	sys := watchdogSystem(t, 50_000_000, 100_000_000)
	cause := errors.New("job canceled by client")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel(cause)
	}()

	_, err := sys.RunContext(ctx)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want wrapped cancel cause", err)
	}
	var wderr *harden.WatchdogError
	if errors.As(err, &wderr) {
		t.Fatalf("mid-run cancellation produced a watchdog dump:\n%s", wderr.Dump)
	}
	if sys.fatal != nil {
		t.Fatalf("cancellation recorded as a fatal hardening failure: %v", sys.fatal)
	}
}

func TestWatchdogArmedDeadlineMidRun(t *testing.T) {
	sys := watchdogSystem(t, 50_000_000, 100_000_000)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()

	_, err := sys.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var wderr *harden.WatchdogError
	if errors.As(err, &wderr) {
		t.Fatalf("deadline expiry produced a watchdog dump:\n%s", wderr.Dump)
	}
}

// TestWatchdogArmedRunCompletes is the control: the same hardened
// configuration, uncanceled, runs to completion — the watchdog window
// chosen above never fires on a healthy run.
func TestWatchdogArmedRunCompletes(t *testing.T) {
	sys := watchdogSystem(t, 50_000, 100_000)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	res, err := sys.RunContext(ctx)
	if err != nil {
		t.Fatalf("hardened run failed: %v", err)
	}
	if !(res.IPC > 0) {
		t.Fatalf("IPC = %v", res.IPC)
	}
}
