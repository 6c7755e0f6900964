package memsim

// One testing.B benchmark per paper artifact. Each runs the
// corresponding experiment harness at a reduced budget so `go test
// -bench` finishes in minutes; cmd/experiments regenerates the same
// tables at full budget. The reported metric of interest is the
// experiment's own table (printed once per benchmark under -v), while
// the ns/op figure tracks simulator throughput.

import (
	"io"
	"testing"

	"memsim/internal/experiments"
)

// benchRunner uses a reduced budget and a representative benchmark
// subset covering every behaviour class: a bandwidth-bound chaser
// (mcf), streaming winners (swim, applu), a latency-bound winner
// (facerec), a low-accuracy chaser (vpr), and a cache-resident
// workload (gzip).
func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	r, err := experiments.NewRunner(experiments.Options{
		Instrs:     50_000,
		Warmup:     150_000,
		Benchmarks: []string{"mcf", "swim", "applu", "facerec", "vpr", "gzip"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		if err := e.Run(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B)               { runExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B)             { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)             { runExperiment(b, "table2") }
func BenchmarkFig3AddrMap(b *testing.B)        { runExperiment(b, "addrmap") }
func BenchmarkTable3(b *testing.B)             { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)             { runExperiment(b, "table4") }
func BenchmarkFig5(b *testing.B)               { runExperiment(b, "fig5") }
func BenchmarkUtilization(b *testing.B)        { runExperiment(b, "util") }
func BenchmarkCacheSize(b *testing.B)          { runExperiment(b, "cachesize") }
func BenchmarkLatencySensitivity(b *testing.B) { runExperiment(b, "latsens") }
func BenchmarkSoftwarePrefetch(b *testing.B)   { runExperiment(b, "swpf") }
func BenchmarkRegionSize(b *testing.B)         { runExperiment(b, "regionsize") }
func BenchmarkQueueDepth(b *testing.B)         { runExperiment(b, "queuedepth") }
func BenchmarkThrottle(b *testing.B)           { runExperiment(b, "throttle") }
func BenchmarkSchemes(b *testing.B)            { runExperiment(b, "schemes") }
func BenchmarkReorder(b *testing.B)            { runExperiment(b, "reorder") }
func BenchmarkSchedZoo(b *testing.B)           { runExperiment(b, "schedzoo") }
func BenchmarkTimingZoo(b *testing.B)          { runExperiment(b, "timingzoo") }
func BenchmarkRefresh(b *testing.B)            { runExperiment(b, "refresh") }
func BenchmarkInterleave(b *testing.B)         { runExperiment(b, "interleave") }
func BenchmarkPollution(b *testing.B)          { runExperiment(b, "pollution") }

// BenchmarkPolicy measures per-scheme simulator throughput: one
// sub-benchmark per zoo member, so the bench gate catches a policy
// implementation going quadratic independently of the experiment
// tables it feeds.
func BenchmarkPolicy(b *testing.B) {
	run := func(mutate func(*Config)) func(*testing.B) {
		return func(b *testing.B) {
			// Long enough per op that the 10% regression gate measures
			// the simulator, not scheduler jitter.
			cfg := TunedConfig()
			cfg.MaxInstrs = 500_000
			cfg.WarmupInstrs = 0
			mutate(&cfg)
			for i := 0; i < b.N; i++ {
				gen, err := Workload("swim", 0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(cfg, gen); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sched=fcfs", run(func(c *Config) { c.SchedPolicy = "fcfs" }))
	b.Run("sched=frfcfs", run(func(c *Config) { c.SchedPolicy = "frfcfs" }))
	b.Run("sched=frfcfs-cap", run(func(c *Config) { c.SchedPolicy = "frfcfs-cap"; c.ReorderWindow = 8 }))
	b.Run("timing=tiered", run(func(c *Config) { c.BankTiming = "tiered" }))
	b.Run("timing=rowreuse", run(func(c *Config) { c.BankTiming = "rowreuse" }))
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions per wall-clock second) on the tuned system.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := TunedConfig()
	cfg.MaxInstrs = 100_000
	cfg.WarmupInstrs = 0
	for i := 0; i < b.N; i++ {
		gen, err := Workload("equake", 0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(cfg, gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.MaxInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
