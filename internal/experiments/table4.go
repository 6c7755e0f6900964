package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/prefetch"
	"memsim/internal/sim"
	"memsim/internal/stats"
)

// Table4Row is one prefetch scheme's suite-wide summary.
type Table4Row struct {
	Scheme string
	// MissRate is the arithmetic-mean L2 miss rate across benchmarks.
	MissRate float64
	// MissLatency is the arithmetic-mean demand miss latency in core
	// cycles.
	MissLatency float64
	// NormIPC is harmonic-mean IPC normalized to the base scheme.
	NormIPC float64
}

// Table4Result reproduces Table 4: base (XOR mapping, no prefetch),
// unscheduled FIFO region prefetching, scheduled FIFO, and scheduled
// LIFO with bank-aware prioritization.
type Table4Result struct {
	Rows []Table4Row
	// Degraded lists benchmarks the tuned scheme slows by over 1%
	// (the paper sees only vpr, by 1.6%).
	Degraded []BenchSpeedup
}

// table4Schemes builds the four configurations.
func table4Schemes() []struct {
	name string
	cfg  core.Config
} {
	base := core.Base()
	base.Mapping = "xor"

	unsched := base
	unsched.Prefetch = core.TunedPrefetch()
	unsched.Prefetch.Policy = prefetch.FIFO
	unsched.Prefetch.BankAware = false
	unsched.Prefetch.Scheduled = false

	schedFIFO := unsched
	schedFIFO.Prefetch.Scheduled = true

	schedLIFO := base
	schedLIFO.Prefetch = core.TunedPrefetch()

	return []struct {
		name string
		cfg  core.Config
	}{
		{"base (w/XOR)", base},
		{"FIFO prefetch", unsched},
		{"sched. FIFO", schedFIFO},
		{"sched. LIFO", schedLIFO},
	}
}

// Table4 runs the prefetch-scheme comparison.
func (r *Runner) Table4() (*Table4Result, error) {
	schemes := table4Schemes()
	all := make([][]core.Result, len(schemes))
	for i, s := range schemes {
		results, err := r.RunBenches(s.cfg, false)
		if err != nil {
			return nil, err
		}
		all[i] = results
	}

	clock := sim.NewClock(core.Base().ClockHz)
	baseHM := hmean(ipcs(all[0]))
	res := &Table4Result{}
	for i, s := range schemes {
		var miss, lat []float64
		for _, rr := range all[i] {
			miss = append(miss, rr.L2MissRate())
			lat = append(lat, rr.MeanMissLatencyCycles(clock))
		}
		res.Rows = append(res.Rows, Table4Row{
			Scheme:      s.name,
			MissRate:    stats.Mean(miss),
			MissLatency: stats.Mean(lat),
			NormIPC:     hmean(ipcs(all[i])) / baseHM,
		})
	}

	// Per-benchmark degradations under the tuned scheme.
	tuned := all[len(schemes)-1]
	for i, b := range r.opt.Benchmarks {
		sp := stats.Speedup(all[0][i].IPC, tuned[i].IPC)
		if sp < 0.99 {
			res.Degraded = append(res.Degraded, BenchSpeedup{Bench: b, Speedup: sp})
		}
	}
	return res, nil
}

// Write renders the result as text.
func (t *Table4Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Table 4: comparison of prefetch schemes (suite averages)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tL2 miss rate\tmiss latency (cyc)\tnormalized IPC")
	for _, row := range t.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.2f\n",
			row.Scheme, stats.Pct(row.MissRate), row.MissLatency, row.NormIPC)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: 36.4% / 10.9% / 18.3% / 17.0% miss rates;")
	fmt.Fprintln(w, "134 / 980 / 140 / 141 cycle latencies; 1.00 / 0.33 / 1.12 / 1.16 IPC")
	if len(t.Degraded) == 0 {
		fmt.Fprintln(w, "no benchmark degraded by over 1% (paper: only vpr, -1.6%)")
	} else {
		fmt.Fprint(w, "degraded benchmarks:")
		for _, d := range t.Degraded {
			fmt.Fprintf(w, " %s %.1f%%", d.Bench, 100*(d.Speedup-1))
		}
		fmt.Fprintln(w, "  (paper: only vpr, -1.6%)")
	}
	return nil
}
