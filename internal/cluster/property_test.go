package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

// This file is the cluster's property test: seeded random cluster
// programs, each run twice with the fabric ledger (fabric_test.go)
// auditing every delivery. A program that breaks a property is shrunk
// with the same greedy ddmin discipline internal/sim/difftest uses,
// over the knobs a cluster config has: member systems, instruction
// budget, channel count, and link latency.

// propertyProfiles are the workloads random programs draw from: a
// spread of memory intensities so programs mix bandwidth hogs with
// cache-resident code.
var propertyProfiles = []string{"mcf", "swim", "facerec", "twolf", "gzip", "art"}

// GenProgram derives a random cluster program from seed: 1–4 systems,
// a few hundred to a couple thousand instructions each, 1–4 channels,
// and a link latency between 4 and 32 ns. Closed-page policy toggles
// per program so the programs cover both row-buffer policies. About a
// third of the members run the paper's tuned region prefetcher, whose
// prefetches cross the link without asking for first data, and some of
// those also emit and execute software prefetches.
func GenProgram(seed uint64) Config {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 1 + rng.Intn(4)
	cfg := Config{
		Channels:          1 << rng.Intn(3),
		DevicesPerChannel: 1 << rng.Intn(2),
		LinkLatency:       sim.Time(4<<rng.Intn(4)) * sim.Nanosecond,
		MaxInstrs:         uint64(300 + rng.Intn(1200)),
		WarmupInstrs:      uint64(rng.Intn(200)),
		ClosedPage:        rng.Intn(4) == 0,
	}
	for i := 0; i < n; i++ {
		spec := SystemSpec{
			Bench: propertyProfiles[rng.Intn(len(propertyProfiles))],
			Seed:  uint64(rng.Intn(1 << 16)),
		}
		if rng.Intn(3) == 0 {
			sc := core.Tuned()
			sc.SoftwarePrefetch = rng.Intn(2) == 0
			spec.Config = &sc
		}
		cfg.Systems = append(cfg.Systems, spec)
	}
	// A quarter of programs arm metrics and the timeline, so their
	// final reads of the shared clock enter the compared bytes.
	if rng.Intn(4) == 0 {
		cfg.Obs = obs.Config{Metrics: true, SampleEvery: sim.Time(1+rng.Intn(8)) * sim.Microsecond}
	}
	return cfg
}

// audited runs cfg once under the fabric ledger and returns the merged
// Result's canonical bytes (the Result carries no wall-clock state, so
// equal bytes mean identical simulations) with the ledger.
func audited(cfg Config) (string, *fabricLedger, error) {
	r, err := newRun(cfg)
	if err != nil {
		return "", nil, err
	}
	l := newLedger()
	r.tap = l.observe
	if err := r.loop(context.Background()); err != nil {
		return "", l, err
	}
	if err := l.finish(r); err != nil {
		return "", l, err
	}
	res, err := r.collect()
	if err != nil {
		return "", l, err
	}
	b, err := json.Marshal(res)
	return string(b), l, err
}

// violation runs cfg twice and describes the first property it breaks:
// a run that fails, a delivery the ledger rejects, or two runs whose
// results differ. It returns "" when every property holds, with the
// first run's ledger.
func violation(cfg Config) (string, *fabricLedger) {
	first, l, err := audited(cfg)
	if err != nil {
		return err.Error(), l
	}
	second, _, err := audited(cfg)
	if err != nil {
		return "second run: " + err.Error(), l
	}
	if first != second {
		return describeDiff(first, second), l
	}
	return "", l
}

// describeDiff locates the first differing byte for the report.
func describeDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("runs diverge at byte %d: ...%s vs ...%s",
		i, a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
}

// report describes a broken property of cfg with a ddmin-shrunk
// minimal configuration.
func report(seed uint64, cfg Config, v string) string {
	m := Minimize(cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "cluster property broken (seed %d): %s\n", seed, v)
	mb, _ := json.Marshal(m)
	fmt.Fprintf(&b, "minimal reproducer (%d of %d systems, %d instrs): %s, obs %+v",
		len(m.Systems), len(cfg.Systems), m.MaxInstrs, mb, m.Obs)
	return b.String()
}

// Minimize shrinks a cluster config while it still breaks a property:
// ddmin over the system list, then greedy halving of the instruction
// budget, channels, and link latency. If cfg breaks none it is
// returned unchanged.
func Minimize(cfg Config) Config {
	fails := func(c Config) bool {
		v, _ := violation(c)
		return v != ""
	}
	if !fails(cfg) {
		return cfg
	}
	// ddmin over the member systems.
	for chunk := (len(cfg.Systems) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(cfg.Systems) && len(cfg.Systems) > chunk; {
			trial := cfg
			trial.Systems = append(append([]SystemSpec{}, cfg.Systems[:i]...), cfg.Systems[i+chunk:]...)
			if fails(trial) {
				cfg = trial
			} else {
				i += chunk
			}
		}
	}
	// Greedy scalar shrinks, each kept only while still failing.
	shrink := func(apply func(*Config) bool) {
		for {
			trial := cfg
			if !apply(&trial) || !fails(trial) {
				return
			}
			cfg = trial
		}
	}
	shrink(func(c *Config) bool {
		if c.MaxInstrs <= 50 {
			return false
		}
		c.MaxInstrs /= 2
		c.WarmupInstrs /= 2
		return true
	})
	shrink(func(c *Config) bool {
		if c.Channels <= 1 {
			return false
		}
		c.Channels /= 2
		return true
	})
	shrink(func(c *Config) bool {
		if c.LinkLatency <= DefaultLinkLatency/2 {
			return false
		}
		c.LinkLatency /= 2
		return true
	})
	return cfg
}

// TestClusterProperties runs seeded random cluster programs and checks
// that every request completes exactly once (first data only when
// asked for, and before the completion), every delivery fires one link
// latency after its send, and two runs of a program marshal to
// byte-identical Results. Failures come back ddmin-shrunk. The
// programs must include requests that want no first data, which only
// prefetching members send.
func TestClusterProperties(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	noFirst := 0
	for s := 0; s < seeds; s++ {
		cfg := GenProgram(uint64(s))
		v, l := violation(cfg)
		if v != "" {
			t.Fatal(report(uint64(s), cfg, v))
		}
		noFirst += l.noFirst
	}
	if noFirst == 0 {
		t.Fatalf("no program of %d sent a request without first data", seeds)
	}
}

// TestMinimizeKeepsNonDiverging pins Minimize's contract on healthy
// configs: a program that breaks no property comes back unchanged.
func TestMinimizeKeepsNonDiverging(t *testing.T) {
	cfg := GenProgram(7)
	m := Minimize(cfg)
	if len(m.Systems) != len(cfg.Systems) || m.MaxInstrs != cfg.MaxInstrs {
		t.Fatalf("Minimize mutated a non-diverging config: %+v -> %+v", cfg, m)
	}
}
