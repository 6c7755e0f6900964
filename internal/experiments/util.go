package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/stats"
)

// UtilRow is one benchmark's channel utilization with and without
// prefetching.
type UtilRow struct {
	Bench             string
	CmdBase, DataBase float64
	CmdPF, DataPF     float64
	Speedup           float64 // IPC ratio PF/base
	PrefetchAccuracy  float64
}

// UtilResult reproduces Section 4.4: command- and data-channel
// utilization under the XOR base system and under tuned scheduled
// region prefetching.
type UtilResult struct {
	Rows []UtilRow
	// Mean utilizations across the suite.
	MeanCmdBase, MeanDataBase, MeanCmdPF, MeanDataPF float64
}

// Util runs the utilization study.
func (r *Runner) Util() (*UtilResult, error) {
	base := core.Base()
	base.Mapping = "xor"
	all, err := r.RunBenches(base, core.Tuned())
	if err != nil {
		return nil, err
	}
	baseRes, pfRes := all[0], all[1]

	res := &UtilResult{}
	var cb, db, cp, dp []float64
	for i, b := range r.opt.Benchmarks {
		row := UtilRow{
			Bench:            b,
			CmdBase:          baseRes[i].CommandUtilization(),
			DataBase:         baseRes[i].DataUtilization(),
			CmdPF:            pfRes[i].CommandUtilization(),
			DataPF:           pfRes[i].DataUtilization(),
			Speedup:          stats.Speedup(baseRes[i].IPC, pfRes[i].IPC),
			PrefetchAccuracy: pfRes[i].PrefetchAccuracy(),
		}
		res.Rows = append(res.Rows, row)
		cb = append(cb, row.CmdBase)
		db = append(db, row.DataBase)
		cp = append(cp, row.CmdPF)
		dp = append(dp, row.DataPF)
	}
	res.MeanCmdBase = stats.Mean(cb)
	res.MeanDataBase = stats.Mean(db)
	res.MeanCmdPF = stats.Mean(cp)
	res.MeanDataPF = stats.Mean(dp)
	return res, nil
}

// Write renders the result as text.
func (u *UtilResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.4: effect on Rambus channel utilization")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tcmd base\tdata base\tcmd +PF\tdata +PF\tspeedup\tPF accuracy")
	for _, row := range u.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.2f\t%s\n",
			row.Bench, stats.Pct(row.CmdBase), stats.Pct(row.DataBase),
			stats.Pct(row.CmdPF), stats.Pct(row.DataPF), row.Speedup,
			stats.Pct(row.PrefetchAccuracy))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmeans: cmd %s -> %s, data %s -> %s\n",
		stats.Pct(u.MeanCmdBase), stats.Pct(u.MeanCmdPF),
		stats.Pct(u.MeanDataBase), stats.Pct(u.MeanDataPF))
	fmt.Fprintln(w, "paper: cmd 28% -> 54% (1.9x), data 17% -> 42% (2.5x);")
	fmt.Fprintln(w, "swim cmd 58% -> 96% with 99% accuracy; twolf 22% -> 90% at 7% accuracy")
	return nil
}
