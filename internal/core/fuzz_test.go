package core

import (
	"errors"
	"testing"

	"memsim/internal/harden"
	"memsim/internal/harden/inject"
	"memsim/internal/trace"
)

// FuzzConfigValidate drives Validate with arbitrary field values and
// enforces the hardening contract: Validate never panics, every
// rejection is a typed *harden.ConfigError, and any configuration that
// validates must build — New returning an error (or panicking) on a
// validated config is a bug in the validator's coverage.
func FuzzConfigValidate(f *testing.F) {
	base := Base()
	// The paper's configurations must validate.
	f.Add(base.ClockHz, base.Width, base.ROBSize, base.StoreBuffer,
		base.L1Size, base.L2Size, base.L1Assoc, base.L2Assoc,
		base.L1Block, base.L2Block, base.MSHRs, base.Channels, base.DevicesPerChannel,
		"base", "", true, "region", 4096, 8, 4, 0)
	// Classic mistakes: zero block, non-power-of-two sizes, unknown
	// names, inverted hierarchy.
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 0, 64, 8, 4, 2, "base", "", false, "", 0, 0, 0, 0)
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 96, 96, 8, 4, 2, "base", "", false, "", 0, 0, 0, 0)
	f.Add(1.6e9, 4, 64, 64, int64(1<<20), int64(64<<10), 2, 4, 64, 64, 8, 4, 2, "xor", "independent", false, "", 0, 0, 0, 0)
	f.Add(0.0, 0, 0, 0, int64(0), int64(0), 0, 0, 0, 0, 0, 0, 0, "", "banked", true, "mystery", -1, -1, -1, 99)
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 64, 32, 8, 3, 2, "swap", "ganged", true, "stream", 0, 0, 16, 2)
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 64, 64, 8, 4, 2, "xor", "independent", true, "sequential", 0, 0, 4, 0)

	gen := trace.NewSlice([]trace.Op{{Addr: 0}})

	f.Fuzz(func(t *testing.T, clockHz float64,
		width, rob, sb int,
		l1size, l2size int64,
		l1assoc, l2assoc, l1block, l2block, mshrs, channels, devices int,
		mapping, interleaving string,
		pfEnabled bool, scheme string, regionBytes, queueDepth, lookahead int,
		injectClass int) {

		cfg := Base()
		cfg.ClockHz = clockHz
		cfg.Width, cfg.ROBSize, cfg.StoreBuffer = width, rob, sb
		cfg.L1Size, cfg.L1Assoc, cfg.L1Block = l1size, l1assoc, l1block
		cfg.L2Size, cfg.L2Assoc, cfg.L2Block = l2size, l2assoc, l2block
		cfg.MSHRs = mshrs
		cfg.Channels, cfg.DevicesPerChannel = channels, devices
		cfg.Mapping, cfg.Interleaving = mapping, interleaving
		cfg.Prefetch.Enabled = pfEnabled
		cfg.Prefetch.Scheme = scheme
		cfg.Prefetch.RegionBytes = regionBytes
		cfg.Prefetch.QueueDepth = queueDepth
		cfg.Prefetch.Lookahead = lookahead
		cfg.Harden.Inject = inject.Plan{Class: inject.Class(injectClass)}

		err := cfg.Validate()
		if err != nil {
			var ce *harden.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate returned untyped error %T: %v", err, err)
			}
			if len(ce.Fields) == 0 {
				t.Fatal("ConfigError with no field errors")
			}
			return
		}
		if _, err := New(cfg, gen); err != nil {
			t.Fatalf("config validated but New failed: %v\nconfig: %+v", err, cfg)
		}
	})
}
