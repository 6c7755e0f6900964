package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"memsim/internal/cache"
	"memsim/internal/dram"
	"memsim/internal/harden"
	"memsim/internal/policy"
	"memsim/internal/prefetch"
)

// Knob is one machine knob. memsim's machine flags, sweep's -param
// values and the keys of memsimd's "config" object are rows of Knobs,
// and Config.Apply is the one place a knob value lands in a Config.
// Value ranges are Validate's, under the field the knob sets.
type Knob struct {
	// JSON, Flag and Param name the knob on memsimd's "config" object,
	// memsim's command line and sweep's -param, or are empty; Usage is
	// the flag help. Name, the first of them set, keys it in Overrides.
	JSON, Flag, Param, Usage, Name string
	// Parse reads a value from flag or -param text.
	Parse func(string) (any, error)

	// sub, on a prefetch sub-knob, is the Config field it sets: setting
	// the knob turns on the tuned engine, and beside an explicit
	// prefetch=false it is a ConfigError on that field.
	sub    string
	isBool bool
	decode func([]byte) (any, error) // a "config" value
	set    func(*Config, any)
}

// knob completes row k for values of type T, read from text by parse
// and landed in a Config by set.
func knob[T any](k Knob, parse func(string) (T, error), set func(*Config, T)) Knob {
	k.Name = cmp.Or(k.JSON, k.Flag, k.Param)
	_, k.isBool = any(*new(T)).(bool)
	k.Parse = func(s string) (any, error) { v, err := parse(s); return v, err }
	k.decode = func(b []byte) (any, error) { var v T; err := json.Unmarshal(b, &v); return v, err }
	k.set = func(c *Config, v any) { set(c, v.(T)) }
	return k
}

func text(s string) (string, error) { return s, nil }

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// parseSize understands "64KB", "1MB", "1048576".
func parseSize(s string) (int64, error) {
	u, shift := strings.ToUpper(strings.TrimSpace(s)), 0
	if t, ok := strings.CutSuffix(u, "MB"); ok {
		u, shift = t, 20
	} else if t, ok := strings.CutSuffix(u, "KB"); ok {
		u, shift = t, 10
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n << shift, nil
}

// parseInsert resolves an insertion priority by name, in any case.
func parseInsert(name string) (cache.InsertPos, error) {
	for _, p := range cache.Positions {
		if strings.EqualFold(p.String(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown insertion priority %q", name)
}

func names[P, T any](r *policy.Registry[P, T]) string { return strings.Join(r.Names(), ", ") }

// baseDevices is Base's 4×2 device count. A channel count set without
// a device count keeps it, as Table 2 and Figure 5 hold memory fixed.
const baseDevices = 8

// Knobs is the knob table. Apply sets rows in this order.
var Knobs = []Knob{
	knob(Knob{Flag: "ghz", Usage: "core clock in GHz"}, parseFloat, func(c *Config, v float64) { c.ClockHz = v * 1e9 }),
	knob(Knob{JSON: "mapping", Flag: "mapping", Usage: "address mapping: " + names(policy.Mappings)},
		text, func(c *Config, v string) { c.Mapping = v }),
	knob(Knob{JSON: "interleaving", Flag: "interleaving", Usage: "channel organization: " + names(policy.Interleavings)},
		text, func(c *Config, v string) { c.Interleaving = v }),
	knob(Knob{JSON: "channels", Flag: "channels", Param: "channels", Usage: "physical Rambus channels"},
		strconv.Atoi, func(c *Config, v int) { c.Channels = v }),
	knob(Knob{Flag: "devices", Usage: "devices per channel (default keeps 8 total)"},
		strconv.Atoi, func(c *Config, v int) { c.DevicesPerChannel = v }),
	knob(Knob{JSON: "closed_page"}, strconv.ParseBool, func(c *Config, v bool) { c.ClosedPage = v }),
	knob(Knob{JSON: "refresh", Flag: "refresh", Usage: "model DRAM refresh"},
		strconv.ParseBool, func(c *Config, v bool) { c.Refresh = v }),
	knob(Knob{JSON: "reorder_window", Flag: "reorder", Param: "reorder", Usage: "frfcfs-cap scan bound (0 = in-order)"},
		strconv.Atoi, func(c *Config, v int) { c.ReorderWindow = v }),
	knob(Knob{JSON: "sched_policy", Flag: "sched", Usage: "issue policy: " + names(policy.Sched) + " (default fcfs, or frfcfs-cap with -reorder above 1)"},
		text, func(c *Config, v string) { c.SchedPolicy = v }),
	knob(Knob{JSON: "bank_timing", Flag: "banktiming", Usage: "bank timing scheme: " + names(policy.Timings) + " (default flat)"},
		text, func(c *Config, v string) { c.BankTiming = v }),
	knob(Knob{Flag: "counterfactual", Usage: "trace what each alternative policy would have decided (requires -trace-out)"},
		strconv.ParseBool, func(c *Config, v bool) { c.Counterfactual = v }),
	knob(Knob{JSON: "prefetch", Flag: "prefetch", Usage: "enable tuned scheduled region prefetching"},
		strconv.ParseBool, func(c *Config, v bool) {
			c.Prefetch = PrefetchConfig{}
			if v {
				c.Prefetch = TunedPrefetch()
			}
		}),
	// Before the scheme, so an explicit scheme wins over the one it selects.
	knob(Knob{Param: "lookahead", sub: "Prefetch.Lookahead"},
		strconv.Atoi, func(c *Config, v int) { c.Prefetch.Scheme, c.Prefetch.Lookahead = "stream", v }),
	knob(Knob{JSON: "prefetch_scheme", Flag: "scheme", Usage: "prefetch scheme: " + names(policy.Prefetchers), sub: "Prefetch.Scheme"},
		text, func(c *Config, v string) { c.Prefetch.Scheme = v }),
	knob(Knob{Flag: "region", Param: "region", Usage: "prefetch region bytes", sub: "Prefetch.RegionBytes"},
		strconv.Atoi, func(c *Config, v int) { c.Prefetch.RegionBytes = v }),
	knob(Knob{Flag: "insert", Usage: "prefetch insertion priority, one of " + fmt.Sprint(cache.Positions), sub: "Prefetch.Insert"},
		parseInsert, func(c *Config, v cache.InsertPos) { c.Prefetch.Insert = v }),
	knob(Knob{Flag: "fifo", Usage: "use FIFO region prioritization instead of LIFO", sub: "Prefetch.Policy"},
		strconv.ParseBool, func(c *Config, v bool) { c.Prefetch.Policy, c.Prefetch.BankAware = prefetch.FIFO, false }),
	knob(Knob{Flag: "unscheduled", Usage: "issue prefetches as ordinary requests (Table 4 pathology)", sub: "Prefetch.Scheduled"},
		strconv.ParseBool, func(c *Config, v bool) { c.Prefetch.Scheduled = false }),
	knob(Knob{JSON: "software_prefetch", Flag: "swprefetch", Usage: "execute software prefetch instructions"},
		strconv.ParseBool, func(c *Config, v bool) { c.SoftwarePrefetch = v }),
	knob(Knob{JSON: "l2_size_bytes", Flag: "l2", Usage: "L2 capacity (e.g. 1MB, 4MB)"},
		parseSize, func(c *Config, v int64) { c.L2Size = v }),
	knob(Knob{Param: "l2mb"}, strconv.Atoi, func(c *Config, v int) { c.L2Size = int64(v) << 20 }),
	knob(Knob{JSON: "l2_block_bytes", Flag: "block", Param: "block", Usage: "L2 block size in bytes"},
		strconv.Atoi, func(c *Config, v int) { c.L2Block = v }),
	knob(Knob{Param: "mshrs"}, strconv.Atoi, func(c *Config, v int) { c.MSHRs = v }),
	knob(Knob{Flag: "part", Usage: "DRDRAM part: 800-40, 800-50, or 800-34"},
		dram.PartByName, func(c *Config, v dram.Timing) { c.Timing = v }),
	knob(Knob{Flag: "perfect-l2", Usage: "make every L2 access hit"}, strconv.ParseBool, func(c *Config, v bool) { c.PerfectL2 = v }),
	knob(Knob{Flag: "perfect-mem", Usage: "make every L1 access hit"}, strconv.ParseBool, func(c *Config, v bool) { c.PerfectMem = v }),
}

// Overrides maps knob Names to non-nil values of their rows' types. As
// JSON it is memsimd's "config" object.
type Overrides map[string]any

// Apply returns c with the knobs o sets, in table order. It holds
// every coupling rule between knobs:
//   - channels without devices (or with devices <= 0) keeps Base's 8
//     devices, max(1, 8/channels) per channel;
//   - a prefetch sub-knob turns on the tuned engine, and beside an
//     explicit prefetch=false is a ConfigError on its own field; a
//     false fifo or unscheduled is their default and sets nothing;
//   - sched without reorder, and scheme without lookahead, take their
//     scheme's fallback window and lookahead from the policy registries;
//   - reorder without sched selects frfcfs-cap, the policy that reads
//     the window, when the window is above 1.
func (c Config) Apply(o Overrides) (Config, error) {
	var v harden.Validator
	for i := range Knobs {
		k := &Knobs[i]
		val, ok := o[k.Name]
		switch {
		case !ok, k.sub != "" && val == false:
			continue
		case k.sub != "" && o["prefetch"] == false:
			v.Reject(k.sub, val, "needs the prefetch engine, which prefetch=false turns off")
		case k.sub != "" && !c.Prefetch.Enabled:
			c.Prefetch = TunedPrefetch()
		}
		k.set(&c, val)
	}
	if d, _ := o["devices"].(int); d <= 0 && (o["devices"] != nil || o["channels"] != nil) {
		c.DevicesPerChannel = max(1, baseDevices/max(1, c.Channels))
	}
	if o["sched_policy"] != nil && o["reorder_window"] == nil {
		c.ReorderWindow = policy.Sched.Fill(c.SchedPolicy, c.schedParams()).Window
	} else if o["sched_policy"] == nil && c.ReorderWindow > 1 {
		c.SchedPolicy = "frfcfs-cap"
	}
	if o["prefetch_scheme"] != nil && o["lookahead"] == nil {
		c.Prefetch.Lookahead = policy.Prefetchers.Fill(c.Prefetch.Scheme, prefetchParams(c)).Lookahead
	}
	return c, v.Err()
}

// RegisterFlags defines a flag on fs for every knob with a flag name.
// Parsing a flag lands its value in o, so o holds only the knobs the
// command line set and unset flags leave the preset alone.
func RegisterFlags(fs *flag.FlagSet, o Overrides) {
	for i := range Knobs {
		k := &Knobs[i]
		set := func(s string) error {
			v, err := k.Parse(s)
			if err == nil {
				o[k.Name] = v
			}
			return err
		}
		switch {
		case k.Flag == "":
		case k.isBool:
			fs.BoolFunc(k.Flag, k.Usage, set)
		default:
			fs.Func(k.Flag, k.Usage, set)
		}
	}
}

// UnmarshalJSON decodes memsimd's "config" object: a key is a knob's
// JSON name in any case, and null leaves the knob unset. Keys are read
// in document order and the first bad one is reported, as
// encoding/json does for a struct.
func (o *Overrides) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil || raw == nil {
		if te := (*json.UnmarshalTypeError)(nil); errors.As(err, &te) {
			te.Type = reflect.TypeOf(*o)
		}
		return err
	}
	*o = Overrides{}
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil {
		return err
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return err
		}
		key, k := t.(string), (*Knob)(nil)
		for i := range Knobs {
			if Knobs[i].JSON != "" && strings.EqualFold(Knobs[i].JSON, key) {
				k = &Knobs[i]
			}
		}
		var v json.RawMessage
		switch err := dec.Decode(&v); {
		case err != nil:
			return err
		case k == nil:
			return fmt.Errorf("json: unknown field %q", key)
		case string(v) == "null":
			continue
		}
		val, err := k.decode(v)
		if te := (*json.UnmarshalTypeError)(nil); errors.As(err, &te) {
			// Wrapped, so the enclosing decoder keeps this full path:
			// encoding/json rewrites a bare type error's field.
			te.Field = "config." + key
			return fmt.Errorf("%w", te)
		} else if err != nil {
			return err
		}
		(*o)[k.Name] = val
	}
	return nil
}
