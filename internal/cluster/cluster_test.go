package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/dram"
	"memsim/internal/obs"
	"memsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// testConfig is the canonical 2-system interference config the
// deterministic tests run: a bandwidth hog (swim) co-running with a
// pointer chaser (mcf) on two shared channels, small enough to finish
// in tens of milliseconds.
func testConfig() Config {
	return Config{
		Systems: []SystemSpec{
			{Bench: "mcf", Seed: 11},
			{Bench: "swim", Seed: 12},
		},
		Channels:     2,
		MaxInstrs:    8_000,
		WarmupInstrs: 1_000,
		Obs:          obs.Config{Metrics: true},
	}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func marshal(t *testing.T, res Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterminismAcrossGOMAXPROCS is the CI determinism gate: runs at
// GOMAXPROCS=1 and GOMAXPROCS=8 must produce byte-identical merged
// Results (which embed every system's Result and ObsMetricsDelta).
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	cfg := testConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		got := marshal(t, mustRun(t, cfg))
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d result differs from GOMAXPROCS=1", procs)
		}
	}
}

// TestGoldenCluster pins the merged Result of the canonical 2-system
// run against a checked-in fixture; regenerate with
//
//	go test ./internal/cluster -run TestGoldenCluster -update
func TestGoldenCluster(t *testing.T) {
	checkGolden(t, "golden_cluster.json", marshal(t, mustRun(t, testConfig())))
}

// TestTunedPrefetchGolden pins the shared controllers' prefetch
// discipline: members run the paper's tuned region prefetcher, which
// the fabric degrades to unscheduled prefetches queued FIFO with each
// member's demand misses. Regenerate with
//
//	go test ./internal/cluster -run TestTunedPrefetchGolden -update
func TestTunedPrefetchGolden(t *testing.T) {
	checkGolden(t, "golden_cluster_prefetch.json", marshal(t, mustRun(t, tunedPrefetchConfig())))
}

// tunedPrefetchConfig is testConfig with every member running the
// paper's tuned region prefetcher: the config of
// golden_cluster_prefetch.json.
func tunedPrefetchConfig() Config {
	cfg := testConfig()
	for i := range cfg.Systems {
		sc := core.Base()
		sc.Prefetch = core.TunedPrefetch()
		cfg.Systems[i].Config = &sc
	}
	return cfg
}

// TestSoftwarePrefetchMembers runs mgrid as memcluster -swprefetch
// configures it, with the member's SoftwarePrefetch on and off: on, the
// generator emits the prefetches and the member executes them, so the
// fabric sees different traffic.
func TestSoftwarePrefetchMembers(t *testing.T) {
	run := func(swpf bool) Result {
		sc := core.Base()
		sc.SoftwarePrefetch = swpf
		cfg := testConfig()
		cfg.Systems = []SystemSpec{{Bench: "mgrid", Seed: 11, Config: &sc}}
		return mustRun(t, cfg)
	}
	off, on := run(false), run(true)
	if n := off.Systems[0].Result.SWPrefetches; n != 0 {
		t.Fatalf("software prefetching off issued %d fills", n)
	}
	if on.Systems[0].Result.SWPrefetches == 0 {
		t.Fatal("software prefetching on issued no fills")
	}
	if on.TraceHash == off.TraceHash {
		t.Fatalf("software prefetching left the fire log unchanged (trace_hash %s)", on.TraceHash)
	}
}

// TestPartTiming checks Part selects the shared channels' DRDRAM part,
// and the base configuration's part when empty.
func TestPartTiming(t *testing.T) {
	for part, want := range map[string]dram.Timing{"": core.Base().Timing, "800-50": dram.Part800x50} {
		cfg := testConfig()
		cfg.Part = part
		fabric, err := cfg.fabric()
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.systemConfig(0, fabric).Timing; got != want {
			t.Errorf("Part %q: member timing %s, want %s", part, got.Name, want.Name)
		}
	}
}

// checkGolden compares got against the fixture testdata/name, first
// rewriting the fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("result drifted from golden fixture %s (re-run with -update if intended)\ngot: %s", path, got)
	}
}

// TestInterferenceMetrics checks the headline multi-programmed
// numbers on a 4-system mix: per-system IPC, occupancy shares that
// sum to one, weighted speedup, and slowdowns >= ~1.
func TestInterferenceMetrics(t *testing.T) {
	cfg := Config{
		Systems: []SystemSpec{
			{Bench: "mcf", Seed: 1},
			{Bench: "swim", Seed: 2},
			{Bench: "facerec", Seed: 3},
			{Bench: "twolf", Seed: 4},
		},
		Channels:  2,
		MaxInstrs: 4_000,
	}
	res, err := RunWithBaselines(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var shareSum float64
	for _, s := range res.Systems {
		if s.Result.IPC <= 0 {
			t.Errorf("%s: IPC %v not positive", s.Label, s.Result.IPC)
		}
		if s.IPCAlone <= 0 {
			t.Errorf("%s: IPCAlone %v not positive", s.Label, s.IPCAlone)
		}
		if s.Slowdown < 0.99 {
			t.Errorf("%s: slowdown %v below 1: sharing made it faster than running alone", s.Label, s.Slowdown)
		}
		shareSum += s.OccupancyShare
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("occupancy shares sum to %v, want 1", shareSum)
	}
	if res.WeightedSpeedup <= 0 || res.WeightedSpeedup > float64(len(cfg.Systems)) {
		t.Errorf("weighted speedup %v out of (0, %d]", res.WeightedSpeedup, len(cfg.Systems))
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness %v out of (0, 1]", res.Fairness)
	}
}

// TestClusterMetricsLabels checks the fabric-level series carry
// per-system and per-channel labels.
func TestClusterMetricsLabels(t *testing.T) {
	res := mustRun(t, testConfig())
	if res.ClusterMetrics == nil {
		t.Fatal("metrics enabled but ClusterMetrics nil")
	}
	wantSubstr := []string{
		`memsim_cluster_share_grants_total{class=demand,system=sys0-mcf}`,
		`memsim_cluster_share_data_time_ps{system=sys1-swim}`,
		`memsim_cluster_channel_data_busy_ps{channel=1}`,
	}
	for _, w := range wantSubstr {
		if _, ok := res.ClusterMetrics[w]; !ok {
			t.Errorf("missing cluster metric %q", w)
		}
	}
	for i, s := range res.Systems {
		if s.Metrics == nil {
			t.Errorf("system %d: per-system metrics nil", i)
		}
	}
}

// member returns a config mutation that gives the last system a
// core.Base() config changed by mut.
func member(mut func(*core.Config)) func(*Config) {
	return func(c *Config) {
		sc := core.Base()
		mut(&sc)
		c.Systems[len(c.Systems)-1].Config = &sc
	}
}

// TestValidate covers the cluster-level config rejections.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no systems", func(c *Config) { c.Systems = nil }, "no systems"},
		{"unknown bench", func(c *Config) { c.Systems[0].Bench = "nope" }, "nope"},
		{"bad link", func(c *Config) { c.LinkLatency = -sim.Nanosecond }, "LinkLatency"},
		{"member sched policy", member(func(sc *core.Config) { sc.SchedPolicy = "frfcfs" }), "SchedPolicy"},
		{"member reorder window", member(func(sc *core.Config) { sc.ReorderWindow = 8 }), "ReorderWindow"},
		{"member refresh", member(func(sc *core.Config) { sc.Refresh = true }), "Refresh"},
		{"member counterfactual", member(func(sc *core.Config) { sc.Counterfactual = true }), "Counterfactual"},
	}
	for _, tc := range cases {
		cfg := testConfig().withDefaults()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// A valid config checks without allocating: validation is the whole
	// set-up cost memcluster pays before Run.
	cfg := testConfig().withDefaults()
	if allocs := testing.AllocsPerRun(10, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate: %v allocations, want 0", allocs)
	}
}

// TestBadFabricNamedAsFabric checks that Run rejects a fabric shape
// core.Config.Validate rejects, before any member is built, and blames
// the fabric and the field at fault rather than a member.
func TestBadFabricNamedAsFabric(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"channels not a power of two", func(c *Config) { c.Channels = 3 }, "Channels = 3"},
		{"negative channels", func(c *Config) { c.Channels = -1 }, "Channels = -1"},
		{"devices out of range", func(c *Config) { c.DevicesPerChannel = 128 }, "DevicesPerChannel = 128"},
		{"unknown mapping", func(c *Config) { c.Mapping = "hash" }, "Mapping = hash"},
		{"unknown bank timing", func(c *Config) { c.BankTiming = "exotic" }, "BankTiming = exotic"},
		{"unknown part", func(c *Config) { c.Part = "800-99" }, `unknown part "800-99"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			_, err := Run(context.Background(), cfg)
			if err == nil {
				t.Fatal("Run accepted the fabric")
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "cluster: fabric: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("err = %q, want a fabric error naming %q", msg, tc.want)
			}
		})
	}
}

// TestCancellation verifies a canceled context stops the run with a
// classified error instead of spinning.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig()); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("got %v, want abort error", err)
	}
}

// TestDrainedQueueIsDeadlock checks the end of a run that cannot
// finish: when the link loses every request, the queue drains with the
// cores waiting on their misses, and Run reports a deadlock instead of
// a result.
func TestDrainedQueueIsDeadlock(t *testing.T) {
	r, err := newRun(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.arriveCB = func(sim.Time, any) {}
	if err := r.loop(context.Background()); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("got %v, want a deadlock error", err)
	}
}

// TestSoloMatchesShare sanity-checks a single-system cluster: it gets
// the whole fabric (occupancy share 1) and still terminates.
func TestSoloMatchesShare(t *testing.T) {
	cfg := Config{
		Systems:   []SystemSpec{{Bench: "swim", Seed: 5}},
		Channels:  1,
		MaxInstrs: 3_000,
	}
	res := mustRun(t, cfg)
	if got := res.Systems[0].OccupancyShare; got != 1 {
		t.Fatalf("solo occupancy share %v, want 1", got)
	}
	if res.Messages == 0 {
		t.Fatalf("no fabric traffic recorded: %+v", res)
	}
}
