package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/stats"
)

// Fig1Row is one benchmark's bar in Figure 1.
type Fig1Row struct {
	Bench      string
	Real       float64 // IPC on the base memory system
	PerfectL2  float64 // IPC with a perfect L2
	PerfectMem float64 // IPC with a perfect memory system
}

// L2StallFraction is the fraction of time spent waiting for L2 misses:
// (IPC_perfectL2 - IPC_real) / IPC_perfectL2.
func (r Fig1Row) L2StallFraction() float64 { return stats.LostFraction(r.Real, r.PerfectL2) }

// MemStallFraction is the fraction of performance lost to the
// imperfect memory system overall.
func (r Fig1Row) MemStallFraction() float64 { return stats.LostFraction(r.Real, r.PerfectMem) }

// Fig1Result reproduces Figure 1: per-benchmark IPC under the real,
// perfect-L2, and perfect-memory hierarchies, plus the aggregate time
// breakdown (the paper reports 57% L2 stall, 12% L1 stall, 31%
// compute).
type Fig1Result struct {
	Rows []Fig1Row
	// Aggregate fractions from harmonic-mean IPCs.
	L2Stall, L1Stall, Compute float64
}

// Fig1 runs the experiment on the base system.
func (r *Runner) Fig1() (*Fig1Result, error) {
	base := core.Base()

	pl2 := base
	pl2.PerfectL2 = true
	pm := base
	pm.PerfectMem = true

	real, err := r.RunBenches(base, false)
	if err != nil {
		return nil, err
	}
	perfL2, err := r.RunBenches(pl2, false)
	if err != nil {
		return nil, err
	}
	perfMem, err := r.RunBenches(pm, false)
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{}
	for i, b := range r.opt.Benchmarks {
		res.Rows = append(res.Rows, Fig1Row{
			Bench:      b,
			Real:       real[i].IPC,
			PerfectL2:  perfL2[i].IPC,
			PerfectMem: perfMem[i].IPC,
		})
	}
	// Order by L2 stall fraction, as in the paper's figure.
	sort.Slice(res.Rows, func(i, j int) bool {
		return res.Rows[i].L2StallFraction() > res.Rows[j].L2StallFraction()
	})

	hmReal := hmean(ipcs(real))
	hmPL2 := hmean(ipcs(perfL2))
	hmPM := hmean(ipcs(perfMem))
	memLost := stats.LostFraction(hmReal, hmPM)
	l2Lost := stats.LostFraction(hmReal, hmPL2)
	res.L2Stall = l2Lost
	res.L1Stall = memLost - l2Lost
	res.Compute = 1 - memLost
	return res, nil
}

// Write renders the result as text.
func (f *Fig1Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 1: processor performance for the synthetic SPEC2000 suite")
	fmt.Fprintln(w, "(bars ordered by L2 stall fraction, as in the paper)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tIPC real\tIPC perfect-L2\tIPC perfect-mem\tL2 stall\tmem stall")
	for _, row := range f.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%s\t%s\n",
			row.Bench, row.Real, row.PerfectL2, row.PerfectMem,
			stats.Pct(row.L2StallFraction()), stats.Pct(row.MemStallFraction()))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\naggregate (harmonic-mean IPC): %s servicing L2 misses, %s servicing L1 misses, %s computing\n",
		stats.Pct(f.L2Stall), stats.Pct(f.L1Stall), stats.Pct(f.Compute))
	fmt.Fprintln(w, "paper: 57% / 12% / 31%")
	return nil
}
