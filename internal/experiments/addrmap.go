package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"text/tabwriter"

	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/stats"
)

// Mappings is the address-mapping comparison of Section 3.4.
var Mappings = []string{"base", "swap", "xor"}

// AddrMapRow aggregates one mapping's behaviour over the suite.
type AddrMapRow struct {
	Mapping string
	// ReadHit and WritebackHit are mean row-buffer hit rates over the
	// benchmarks with DRAM traffic.
	ReadHit, WritebackHit float64
	// MeanIPC is the harmonic-mean IPC.
	MeanIPC float64
}

// AddrMapResult reproduces the Figure 3 / Section 3.4 study: row-buffer
// hit rates and performance under the three address mappings.
type AddrMapResult struct {
	Rows []AddrMapRow
	// XORSpeedup is the harmonic-mean speedup of the XOR mapping over
	// base (paper: 16% on average).
	XORSpeedup float64
	// TopGainers lists the benchmarks the XOR mapping helps most
	// (paper: applu 63%; swim, fma3d, facerec over 40%).
	TopGainers []BenchSpeedup
}

// BenchSpeedup pairs a benchmark with a speedup ratio.
type BenchSpeedup struct {
	Bench   string
	Speedup float64
}

// AddrMap runs the mapping comparison on the base system.
func (r *Runner) AddrMap() (*AddrMapResult, error) {
	cfgs := make([]core.Config, len(Mappings))
	for i, m := range Mappings {
		cfgs[i] = core.Base()
		cfgs[i].Mapping = m
	}
	all, err := r.RunBenches(cfgs...)
	if err != nil {
		return nil, err
	}

	res := &AddrMapResult{}
	for i, m := range Mappings {
		results := all[i]
		var reads, wbs []float64
		for _, rr := range results {
			if rr.Channel.Accesses[channel.Demand] > 0 {
				reads = append(reads, rr.RowHitRate(channel.Demand))
			}
			if rr.Channel.Accesses[channel.Writeback] > 0 {
				wbs = append(wbs, rr.RowHitRate(channel.Writeback))
			}
		}
		res.Rows = append(res.Rows, AddrMapRow{
			Mapping:      m,
			ReadHit:      stats.Mean(reads),
			WritebackHit: stats.Mean(wbs),
			MeanIPC:      hmean(ipcs(results)),
		})
	}

	base, xor := all[slices.Index(Mappings, "base")], all[slices.Index(Mappings, "xor")]
	res.XORSpeedup = hmean(ipcs(xor)) / hmean(ipcs(base))
	for i, b := range r.opt.Benchmarks {
		res.TopGainers = append(res.TopGainers, BenchSpeedup{
			Bench:   b,
			Speedup: stats.Speedup(base[i].IPC, xor[i].IPC),
		})
	}
	sort.Slice(res.TopGainers, func(i, j int) bool {
		return res.TopGainers[i].Speedup > res.TopGainers[j].Speedup
	})
	if len(res.TopGainers) > 5 {
		res.TopGainers = res.TopGainers[:5]
	}
	return res, nil
}

// Write renders the result as text.
func (a *AddrMapResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 3.4 / Figure 3: address mapping vs. row-buffer behaviour")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mapping\tread row-hit\twriteback row-hit\thmean IPC")
	for _, row := range a.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\n",
			row.Mapping, stats.Pct(row.ReadHit), stats.Pct(row.WritebackHit), row.MeanIPC)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nXOR vs base speedup: %.1f%% (paper: 16%% mean)\n", 100*(a.XORSpeedup-1))
	fmt.Fprint(w, "top gainers:")
	for _, g := range a.TopGainers {
		fmt.Fprintf(w, " %s %+.0f%%", g.Bench, 100*(g.Speedup-1))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "paper: base 51%/28% read/writeback hit rates -> XOR 72%/55%;")
	fmt.Fprintln(w, "applu +63%; swim, fma3d, facerec over +40%")
	return nil
}
