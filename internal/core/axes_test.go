package core

import (
	"errors"
	"reflect"
	"testing"

	"memsim/internal/harden"
	"memsim/internal/policy"
	"memsim/internal/trace"
)

// schemeAxes lists every scheme axis: its registered names, how a name
// lands in a Config (with the knobs the scheme needs), and the
// ConfigError field an unknown name is reported under.
var schemeAxes = []struct {
	axis  string
	names []string
	set   func(c *Config, name string)
	field string
}{
	{"mapping", policy.Mappings.Names(), func(c *Config, name string) { c.Mapping = name }, "Mapping"},
	{"interleaving", policy.Interleavings.Names(), func(c *Config, name string) { c.Interleaving = name }, "Interleaving"},
	{"sched", policy.Sched.Names(), func(c *Config, name string) {
		c.SchedPolicy, c.ReorderWindow = name, 8
	}, "SchedPolicy"},
	{"timing", policy.Timings.Names(), func(c *Config, name string) { c.BankTiming = name }, "BankTiming"},
	{"prefetch", policy.Prefetchers.Names(), func(c *Config, name string) {
		c.Prefetch = TunedPrefetch()
		c.Prefetch.Scheme, c.Prefetch.Lookahead = name, 4
	}, "Prefetch.Scheme"},
}

// rejectedFields validates cfg and returns the fields of its
// *harden.ConfigError, failing the test on any other outcome.
func rejectedFields(t *testing.T, cfg Config) []string {
	t.Helper()
	var ce *harden.ConfigError
	if err := cfg.Validate(); !errors.As(err, &ce) {
		t.Fatalf("Validate = %v, want a *harden.ConfigError", err)
	}
	var fields []string
	for _, f := range ce.Fields {
		fields = append(fields, f.Field)
	}
	return fields
}

// TestSchemeAxes drives every registered name on every axis through
// the Validate ⇒ New contract, and pins the ConfigError field of an
// unknown name on each axis and of each scheme's out-of-range knobs.
func TestSchemeAxes(t *testing.T) {
	gen := trace.NewSlice([]trace.Op{{Addr: 0}})
	for _, ax := range schemeAxes {
		t.Run(ax.axis, func(t *testing.T) {
			if len(ax.names) == 0 {
				t.Fatal("no registered schemes")
			}
			for _, name := range ax.names {
				t.Run(name, func(t *testing.T) {
					cfg := Base()
					ax.set(&cfg, name)
					if err := cfg.Validate(); err != nil {
						t.Fatalf("Validate: %v", err)
					}
					if _, err := New(cfg, gen); err != nil {
						t.Fatalf("New: %v", err)
					}
				})
			}
			t.Run("unknown", func(t *testing.T) {
				cfg := Base()
				ax.set(&cfg, "no-such-scheme")
				if got := rejectedFields(t, cfg); !reflect.DeepEqual(got, []string{ax.field}) {
					t.Fatalf("fields %v, want [%s]", got, ax.field)
				}
			})
		})
	}

	for _, tc := range []struct {
		name string
		set  func(c *Config)
		want []string
	}{
		{"frfcfs-cap/window", func(c *Config) { c.SchedPolicy, c.ReorderWindow = "frfcfs-cap", 1 }, []string{"SchedPolicy"}},
		{"region/region-bytes", func(c *Config) { c.Prefetch = TunedPrefetch(); c.Prefetch.RegionBytes = 0 },
			[]string{"Prefetch", "Prefetch.RegionBytes"}},
		{"region/queue-depth", func(c *Config) { c.Prefetch = TunedPrefetch(); c.Prefetch.QueueDepth = policy.MaxQueueDepth + 1 },
			[]string{"Prefetch.QueueDepth"}},
		{"sequential/lookahead", func(c *Config) { c.Prefetch = TunedPrefetch(); c.Prefetch.Scheme = "sequential" },
			[]string{"Prefetch.Lookahead"}},
		{"stream/table-size", func(c *Config) {
			c.Prefetch = TunedPrefetch()
			c.Prefetch.Scheme, c.Prefetch.Lookahead, c.Prefetch.TableSize = "stream", 4, -1
		}, []string{"Prefetch.TableSize"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Base()
			tc.set(&cfg)
			if got := rejectedFields(t, cfg); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fields %v, want %v", got, tc.want)
			}
		})
	}
}
