package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"memsim/internal/obs"
	"memsim/internal/sim"
)

// This file is the cluster differential mode of the difftest harness:
// seeded random cluster programs executed by production's engine and by
// the every-shard reference below, and compared bit for bit (canonical
// JSON of the merged Result, which embeds the fire-log digest). A
// divergence is shrunk with the same greedy ddmin discipline
// internal/sim/difftest uses, over the knobs a cluster config has:
// member systems, instruction budget, channel count, and link latency.

// loopEveryShard is the every-shard reference: run.loop with the
// idle-shard skip taken out. Every epoch advances every shard to the
// epoch end, so no shard's clock ever lags the fabric's. The epoch-end
// choice, the barrier, the per-barrier checks and the final catch-up
// are production's own, so a difference from run.loop isolates the
// skip in run.advance.
func (r *run) loopEveryShard(ctx context.Context) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster: shard panic: %v", p)
		}
	}()
	r.advanceEveryShard(0)
	for {
		end := r.nextEpochEnd(r.now)
		r.advanceEveryShard(end)
		r.epochs++
		r.now = end
		done, err := r.checkBarrier(ctx, r.barrier())
		if err != nil {
			return err
		}
		if done {
			r.catchUp()
			return nil
		}
	}
}

// advanceEveryShard runs every shard to end, idle or not.
func (r *run) advanceEveryShard(end sim.Time) {
	for i, s := range r.scheds {
		r.ahead[i].at, r.ahead[i].ok = s.RunUntil(end)
	}
}

// runEveryShard is Run on the every-shard reference.
func runEveryShard(ctx context.Context, cfg Config) (Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := r.loopEveryShard(ctx); err != nil {
		return Result{}, err
	}
	return r.collect()
}

// diffProfiles are the workloads random programs draw from: a spread
// of memory intensities so programs mix bandwidth hogs with cache-
// resident code.
var diffProfiles = []string{"mcf", "swim", "facerec", "twolf", "gzip", "art"}

// GenProgram derives a random cluster program from seed: 1–4 systems,
// a few hundred to a couple thousand instructions each, 1–4 channels,
// and a link latency between 4 and 32 ns. Closed-page policy toggles
// per program so the differential surface covers both row-buffer
// policies, and observability toggles so it covers the clocks the
// results read.
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
			Bench: diffProfiles[rng.Intn(len(diffProfiles))],
			Seed:  uint64(rng.Intn(1 << 16)),
		}
		cfg.Systems = append(cfg.Systems, spec)
	}
	// A quarter of programs arm metrics and the timeline. Their final
	// reads — the memsim_sim_now_ps gauge, Snapshot's timeline sample —
	// see each shard's clock, which production brings forward only at
	// the end for shards it skipped, while the reference advances every
	// shard through every epoch.
	if rng.Intn(4) == 0 {
		cfg.Obs = obs.Config{Metrics: true, SampleEvery: sim.Time(1+rng.Intn(8)) * sim.Microsecond}
	}
	return cfg
}

// diffEpochBudget bounds every differential run. The largest of the
// first 2,000 programs runs 6.6k epochs, and Minimize's shortest link
// latency multiplies that by at most 8.
const diffEpochBudget = 1 << 20

// errEpochBudget is the cause a run over diffEpochBudget aborts with.
var errEpochBudget = errors.New("epoch budget exhausted")

// closedDone is a Done channel that is always ready.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// epochBudget is a context that reports itself done once checkBarrier
// has polled it more than polls times. A broken skip can leave a shard
// holding a delivery it never fires, and such a run never finishes;
// under the budget it stops with an error after about
// polls*ctxCheckEpochs epochs, the same number on every host.
type epochBudget struct {
	context.Context
	polls int
}

func (b *epochBudget) Done() <-chan struct{} {
	if b.polls--; b.polls < 0 {
		return closedDone
	}
	return nil
}

func (b *epochBudget) Err() error {
	if b.polls < 0 {
		return errEpochBudget
	}
	return nil
}

// canonical runs cfg on one engine under the epoch budget and returns
// the merged Result's canonical bytes (the Result carries no
// wall-clock state, so equal bytes mean bit-identical simulations).
func canonical(engine func(context.Context, Config) (Result, error), cfg Config) (string, error) {
	ctx := &epochBudget{Context: context.Background(), polls: diffEpochBudget / ctxCheckEpochs}
	res, err := engine(ctx, cfg)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// diverges reports a non-empty description when production and the
// every-shard reference disagree on cfg (or either errors
// asymmetrically).
func diverges(cfg Config) string {
	got, errG := canonical(Run, cfg)
	ref, errR := canonical(runEveryShard, cfg)
	switch {
	case errG != nil && errR != nil:
		if errG.Error() != errR.Error() {
			return fmt.Sprintf("errors differ: production %v vs every-shard %v", errG, errR)
		}
		return ""
	case errG != nil:
		return fmt.Sprintf("only production errs: %v", errG)
	case errR != nil:
		return fmt.Sprintf("only every-shard errs: %v", errR)
	case got != ref:
		return describeDiff(got, ref)
	}
	return ""
}

// describeDiff locates the first differing byte for the report.
func describeDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("results diverge at byte %d: ...%s vs ...%s",
		i, a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
}

// Check runs the program on production and on the reference and
// returns "" on agreement, or a report carrying the divergence and a
// ddmin-shrunk minimal configuration.
func Check(seed uint64) string {
	cfg := GenProgram(seed)
	d := diverges(cfg)
	if d == "" {
		return ""
	}
	m := Minimize(cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "production and every-shard reference diverged (seed %d): %s\n", seed, d)
	mb, _ := json.Marshal(m)
	fmt.Fprintf(&b, "minimal reproducer (%d of %d systems, %d instrs): %s, obs %+v",
		len(m.Systems), len(cfg.Systems), m.MaxInstrs, mb, m.Obs)
	return b.String()
}

// Minimize shrinks a diverging cluster config while the divergence
// persists: ddmin over the system list, then greedy halving of the
// instruction budget, channels, and link latency. If cfg does not
// diverge it is returned unchanged.
func Minimize(cfg Config) Config {
	if diverges(cfg) == "" {
		return cfg
	}
	// ddmin over the member systems.
	for chunk := (len(cfg.Systems) + 1) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(cfg.Systems) && len(cfg.Systems) > chunk; {
			trial := cfg
			trial.Systems = append(append([]SystemSpec{}, cfg.Systems[:i]...), cfg.Systems[i+chunk:]...)
			if diverges(trial) != "" {
				cfg = trial
			} else {
				i += chunk
			}
		}
	}
	// Greedy scalar shrinks, each kept only while still diverging.
	shrink := func(apply func(*Config) bool) {
		for {
			trial := cfg
			if !apply(&trial) || diverges(trial) == "" {
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

// TestDifferentialEveryShard checks the idle-shard skip: seeded random
// cluster programs must produce bit-identical merged Results (the
// fire-log digest and, where a program arms them, the final clock
// reads included) on production and on the every-shard reference.
// Failures come back ddmin-shrunk.
func TestDifferentialEveryShard(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	for s := 0; s < seeds; s++ {
		if report := Check(uint64(s)); report != "" {
			t.Fatal(report)
		}
	}
}

// TestMinimizeKeepsNonDiverging pins Minimize's contract on healthy
// configs: a program production and the reference agree on comes back
// unchanged.
func TestMinimizeKeepsNonDiverging(t *testing.T) {
	cfg := GenProgram(7)
	m := Minimize(cfg)
	if len(m.Systems) != len(cfg.Systems) || m.MaxInstrs != cfg.MaxInstrs {
		t.Fatalf("Minimize mutated a non-diverging config: %+v -> %+v", cfg, m)
	}
}
