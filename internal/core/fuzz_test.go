package core

import (
	"errors"
	"reflect"
	"testing"

	"memsim/internal/harden"
	"memsim/internal/trace"
)

// configFieldPaths lists every field path a ConfigError may name: each
// Config field, and each field of the Prefetch, Harden and Obs groups,
// which are never blamed whole.
func configFieldPaths() map[string]bool {
	groups := map[string]bool{"Prefetch": true, "Harden": true, "Obs": true}
	paths := map[string]bool{}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if !groups[f.Name] {
			paths[f.Name] = true
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			paths[f.Name+"."+f.Type.Field(j).Name] = true
		}
	}
	return paths
}

// FuzzConfigValidate drives Validate with arbitrary field values and
// enforces the hardening contract: Validate never panics, every
// rejection is a typed *harden.ConfigError naming Config field paths,
// and any configuration that validates must build — New returning an
// error (or panicking) on a validated config is a bug in the
// validator's coverage.
func FuzzConfigValidate(f *testing.F) {
	base := Base()
	// The paper's configurations must validate.
	f.Add(base.ClockHz, base.Width, base.ROBSize, base.StoreBuffer,
		base.L1Size, base.L2Size, base.L1Assoc, base.L2Assoc,
		base.L1Block, base.L2Block, base.MSHRs, base.Channels, base.DevicesPerChannel,
		"base", "", true, "region", 4096, 8, 4)
	// Classic mistakes: zero block, non-power-of-two sizes, unknown
	// names, inverted hierarchy.
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 0, 64, 8, 4, 2, "base", "", false, "", 0, 0, 0)
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 96, 96, 8, 4, 2, "base", "", false, "", 0, 0, 0)
	f.Add(1.6e9, 4, 64, 64, int64(1<<20), int64(64<<10), 2, 4, 64, 64, 8, 4, 2, "xor", "independent", false, "", 0, 0, 0)
	f.Add(0.0, 0, 0, 0, int64(0), int64(0), 0, 0, 0, 0, 0, 0, 0, "", "banked", true, "mystery", -1, -1, -1)
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 64, 32, 8, 3, 2, "swap", "ganged", true, "stream", 0, 0, 16)
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 64, 64, 8, 4, 2, "xor", "independent", true, "sequential", 0, 0, 4)
	// A region size that is not a power of two.
	f.Add(1.6e9, 4, 64, 64, int64(64<<10), int64(1<<20), 2, 4, 64, 64, 8, 4, 2, "xor", "", true, "region", 3000, 8, 4)

	gen := trace.NewSlice([]trace.Op{{Addr: 0}})
	paths := configFieldPaths()

	f.Fuzz(func(t *testing.T, clockHz float64,
		width, rob, sb int,
		l1size, l2size int64,
		l1assoc, l2assoc, l1block, l2block, mshrs, channels, devices int,
		mapping, interleaving string,
		pfEnabled bool, scheme string, regionBytes, queueDepth, lookahead int) {

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

		err := cfg.Validate()
		if err != nil {
			var ce *harden.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate returned untyped error %T: %v", err, err)
			}
			if len(ce.Fields) == 0 {
				t.Fatal("ConfigError with no field errors")
			}
			for _, fe := range ce.Fields {
				if !paths[fe.Field] {
					t.Fatalf("field error names %q, not a Config field path: %v", fe.Field, fe)
				}
			}
			return
		}
		if _, err := New(cfg, gen); err != nil {
			t.Fatalf("config validated but New failed: %v\nconfig: %+v", err, cfg)
		}
	})
}
