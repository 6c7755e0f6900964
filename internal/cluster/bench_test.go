package cluster

import (
	"context"
	"fmt"
	"testing"
)

// benchConfig builds an n-system mix over the benchmark profiles.
func benchConfig(n int, parallel bool) Config {
	profiles := []string{"mcf", "swim", "facerec", "twolf"}
	cfg := Config{
		Channels:  4,
		MaxInstrs: 20_000,
		Parallel:  parallel,
	}
	for i := 0; i < n; i++ {
		cfg.Systems = append(cfg.Systems, SystemSpec{
			Bench: profiles[i%len(profiles)],
			Seed:  uint64(i + 1),
		})
	}
	return cfg
}

// BenchmarkClusterSeq measures the sequential reference engine at
// 1/2/4/8 systems — the shard-scaling curve's single-threaded anchor —
// with the wall time per epoch beside ns/op.
func BenchmarkClusterSeq(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("systems=%d", n), func(b *testing.B) {
			reportEpochCost(b, benchRun(b, benchConfig(n, false)))
		})
	}
}

// BenchmarkClusterPar measures the parallel sharded engine at the
// same sizes; compare against BenchmarkClusterSeq for the wall-clock
// speedup (bounded by the host's core count).
func BenchmarkClusterPar(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("systems=%d", n), func(b *testing.B) {
			benchRun(b, benchConfig(n, true))
		})
	}
}

// BenchmarkClusterBarrier isolates the epoch-barrier overhead: a
// 2-system cluster with a tiny instruction budget but a short link
// latency spends most of its wall time in epoch turnover, so ns/epoch
// here tracks the per-epoch fixed cost (lookahead, advance, merge,
// inject). It runs the sequential engine: the parallel engine's
// goroutine handshake would dominate the measurement.
func BenchmarkClusterBarrier(b *testing.B) {
	cfg := Config{
		Systems: []SystemSpec{
			{Bench: "twolf", Seed: 1},
			{Bench: "gzip", Seed: 2},
		},
		Channels:    1,
		MaxInstrs:   2_000,
		LinkLatency: DefaultLinkLatency / 4,
	}
	reportEpochCost(b, benchRun(b, cfg))
}

// reportEpochCost reports the benchmark's wall time per epoch of res,
// the result every iteration produced.
func reportEpochCost(b *testing.B, res Result) {
	if res.Epochs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*res.Epochs), "ns/epoch")
	}
}

// benchRun runs cfg b.N times, reporting allocations and the fabric's
// messages per epoch so the per-message cost shows next to ns/op and
// allocs/op. It returns the last run's result (every run is the same).
func benchRun(b *testing.B, cfg Config) Result {
	b.ReportAllocs()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	if res.Epochs > 0 {
		b.ReportMetric(float64(res.Messages)/float64(res.Epochs), "msgs/epoch")
	}
	return res
}

// fireLogSink keeps BenchmarkFireLogFold's digest live.
var fireLogSink uint64

// BenchmarkFireLogFold measures the fire-log digest alone, in ns per
// message: the canonical mcf+swim run's message log, recorded once,
// folded message by message as the barrier folds it.
func BenchmarkFireLogFold(b *testing.B) {
	log, _ := recordLog(b, testConfig())
	r := &run{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range log {
			r.hashMessage(&log[j])
		}
	}
	fireLogSink = r.hash
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(log)), "ns/msg")
}
