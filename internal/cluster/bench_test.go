package cluster

import (
	"context"
	"fmt"
	"testing"
)

// benchConfig builds an n-system mix over the benchmark profiles.
func benchConfig(n int) Config {
	profiles := []string{"mcf", "swim", "facerec", "twolf"}
	cfg := Config{
		Channels:  4,
		MaxInstrs: 20_000,
	}
	for i := 0; i < n; i++ {
		cfg.Systems = append(cfg.Systems, SystemSpec{
			Bench: profiles[i%len(profiles)],
			Seed:  uint64(i + 1),
		})
	}
	return cfg
}

// BenchmarkClusterSeq measures the cluster at 1/2/4/8 systems — the
// scaling curve — with the fabric's messages and the wall time per
// message beside ns/op and allocs/op.
func BenchmarkClusterSeq(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("systems=%d", n), func(b *testing.B) {
			cfg := benchConfig(n)
			b.ReportAllocs()
			var res Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Messages), "msgs/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*res.Messages), "ns/msg")
		})
	}
}

// fireLogSink keeps BenchmarkFireLogFold's digest live.
var fireLogSink uint64

// BenchmarkFireLogFold measures the fire-log digest alone, in ns per
// message: the canonical mcf+swim run's message log, recorded once,
// folded message by message as delivery folds it.
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
