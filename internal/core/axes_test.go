package core

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"memsim/internal/cache"
	"memsim/internal/harden"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
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
		c.SchedPolicy, c.ReorderWindow = name, policy.Sched.Fill(name, policy.SchedParams{}).Window
	}, "SchedPolicy"},
	{"timing", policy.Timings.Names(), func(c *Config, name string) { c.BankTiming = name }, "BankTiming"},
	{"prefetch", policy.Prefetchers.Names(), func(c *Config, name string) {
		c.Prefetch = TunedPrefetch()
		c.Prefetch.Scheme, c.Prefetch.Lookahead = name, 4
	}, "Prefetch.Scheme"},
}

// rejectedFields returns the fields of err, failing the test unless
// it is a *harden.ConfigError.
func rejectedFields(t *testing.T, err error) []string {
	t.Helper()
	var ce *harden.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *harden.ConfigError", err)
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
				if got := rejectedFields(t, cfg.Validate()); !reflect.DeepEqual(got, []string{ax.field}) {
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
		// A window under a policy that does not read it is an error, not
		// a policy choice: the empty name is fcfs whatever the window.
		{"default/window", func(c *Config) { c.ReorderWindow = 8 }, []string{"ReorderWindow"}},
		{"fcfs/window", func(c *Config) { c.SchedPolicy, c.ReorderWindow = "fcfs", 8 }, []string{"ReorderWindow"}},
		{"frfcfs/window", func(c *Config) { c.SchedPolicy, c.ReorderWindow = "frfcfs", 8 }, []string{"ReorderWindow"}},
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
			if got := rejectedFields(t, cfg.Validate()); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fields %v, want %v", got, tc.want)
			}
		})
	}
}

// flagConfig builds the config memsim builds from args: the knob
// flags parsed, then applied to Base.
func flagConfig(args ...string) (Config, error) {
	fs := flag.NewFlagSet("memsim", flag.ContinueOnError)
	o := Overrides{}
	RegisterFlags(fs, o)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	return Base().Apply(o)
}

// TestKnobRules pins the coupling rules of Config.Apply, one row per
// rule, on memsim's flag surface.
func TestKnobRules(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		check func(c Config) bool
		want  []string // ConfigError fields, when the flags are rejected
	}{
		{"unset flags keep the preset", nil, func(c Config) bool { return reflect.DeepEqual(c, Base()) }, nil},
		{"prefetch turns on the tuned engine", []string{"-prefetch"}, func(c Config) bool { return c.Prefetch == TunedPrefetch() }, nil},
		{"channels keep 8 devices", []string{"-channels", "8"},
			func(c Config) bool { return c.Channels == 8 && c.DevicesPerChannel == 1 }, nil},
		{"explicit devices win", []string{"-channels", "8", "-devices", "2"},
			func(c Config) bool { return c.Channels == 8 && c.DevicesPerChannel == 2 }, nil},
		{"stream takes the registry lookahead", []string{"-prefetch", "-scheme", "stream"},
			func(c Config) bool { return c.Prefetch.Scheme == "stream" && c.Prefetch.Lookahead == 4 }, nil},
		{"sequential takes the registry lookahead", []string{"-prefetch", "-scheme", "sequential"},
			func(c Config) bool { return c.Prefetch.Scheme == "sequential" && c.Prefetch.Lookahead == 4 }, nil},
		{"scheme turns the engine on", []string{"-scheme", "stream"},
			func(c Config) bool { return c.Prefetch.Enabled && c.Prefetch.Lookahead == 4 }, nil},
		{"region turns the engine on", []string{"-region", "2048"},
			func(c Config) bool { return c.Prefetch.Enabled && c.Prefetch.RegionBytes == 2048 }, nil},
		{"insert turns the engine on", []string{"-insert", "mru"},
			func(c Config) bool { return c.Prefetch.Enabled && c.Prefetch.Insert == cache.MRU }, nil},
		{"fifo turns the engine on", []string{"-fifo"},
			func(c Config) bool {
				return c.Prefetch.Enabled && c.Prefetch.Policy == prefetch.FIFO && !c.Prefetch.BankAware
			}, nil},
		{"unscheduled turns the engine on", []string{"-unscheduled"},
			func(c Config) bool { return c.Prefetch.Enabled && !c.Prefetch.Scheduled }, nil},
		{"a false fifo or unscheduled sets nothing", []string{"-fifo=false", "-unscheduled=false"},
			func(c Config) bool { return reflect.DeepEqual(c, Base()) }, nil},
		{"prefetch=false allows a false fifo or unscheduled", []string{"-prefetch=false", "-fifo=false", "-unscheduled=false"},
			func(c Config) bool { return !c.Prefetch.Enabled }, nil},
		{"prefetch=false rejects a scheme", []string{"-prefetch=false", "-scheme", "stream"}, nil, []string{"Prefetch.Scheme"}},
		{"prefetch=false rejects every sub-knob", []string{"-prefetch=false", "-region", "2048", "-insert", "MRU", "-fifo", "-unscheduled"},
			nil, []string{"Prefetch.RegionBytes", "Prefetch.Insert", "Prefetch.Policy", "Prefetch.Scheduled"}},
		{"frfcfs-cap fills its window", []string{"-sched", "frfcfs-cap"},
			func(c Config) bool { return c.SchedPolicy == "frfcfs-cap" && c.ReorderWindow == 8 }, nil},
		{"an explicit window wins", []string{"-sched", "frfcfs-cap", "-reorder", "4"},
			func(c Config) bool { return c.ReorderWindow == 4 }, nil},
		{"a window above 1 selects frfcfs-cap", []string{"-reorder", "4"},
			func(c Config) bool { return c.SchedPolicy == "frfcfs-cap" && c.ReorderWindow == 4 }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := flagConfig(tc.args...)
			if tc.want != nil {
				if got := rejectedFields(t, err); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("fields %v, want %v", got, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(cfg) {
				t.Fatalf("config %+v breaks the rule", cfg)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// TestReorderSurfaces pins what a reorder window resolves to on every
// surface that sets one: memsim's -reorder flag, sweep's -param reorder
// (no sched knob there) and memsimd's reorder_window key, each alone
// and beside each sched value. want is the policy and window the config
// runs, or the field of its ConfigError. Every row resolves as it did
// when an empty SchedPolicy was derived from the window, except a
// window above 1 beside fcfs or frfcfs: those policies ignored it, and
// now reject it.
func TestReorderSurfaces(t *testing.T) {
	resolve := func(cfg Config, err error) string {
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return strings.Join(rejectedFields(t, err), ",")
		}
		return fmt.Sprintf("%s/%d", policy.Sched.Resolve(cfg.SchedPolicy), cfg.ReorderWindow)
	}
	var param *Knob
	for i := range Knobs {
		if Knobs[i].Param == "reorder" {
			param = &Knobs[i]
		}
	}
	for _, tc := range []struct {
		window int
		sched  string
		want   string
	}{
		{0, "", "fcfs/0"}, {1, "", "fcfs/1"}, {2, "", "frfcfs-cap/2"}, {8, "", "frfcfs-cap/8"},
		{0, "fcfs", "fcfs/0"}, {1, "fcfs", "fcfs/1"}, {2, "fcfs", "ReorderWindow"}, {8, "fcfs", "ReorderWindow"},
		{0, "frfcfs", "frfcfs/0"}, {1, "frfcfs", "frfcfs/1"}, {2, "frfcfs", "ReorderWindow"}, {8, "frfcfs", "ReorderWindow"},
		{0, "frfcfs-cap", "SchedPolicy"}, {1, "frfcfs-cap", "SchedPolicy"},
		{2, "frfcfs-cap", "frfcfs-cap/2"}, {8, "frfcfs-cap", "frfcfs-cap/8"},
	} {
		n := strconv.Itoa(tc.window)
		args, doc := []string{"-reorder", n}, `{"reorder_window":`+n
		if tc.sched != "" {
			args = append(args, "-sched", tc.sched)
			doc += `,"sched_policy":"` + tc.sched + `"`
		}
		var o Overrides
		if err := json.Unmarshal([]byte(doc+"}"), &o); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{
			"memsim":  resolve(flagConfig(args...)),
			"memsimd": resolve(Base().Apply(o)),
		}
		if tc.sched == "" {
			v, err := param.Parse(n)
			if err != nil {
				t.Fatal(err)
			}
			got["sweep"] = resolve(Base().Apply(Overrides{"mapping": "xor", param.Name: v}))
		}
		for surface, g := range got {
			if g != tc.want {
				t.Errorf("%s: window %d, sched %q resolves to %s, want %s", surface, tc.window, tc.sched, g, tc.want)
			}
		}
	}
}
