package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/stats"
)

// InterleaveRow is one channel-organization configuration.
type InterleaveRow struct {
	Name     string
	MeanIPC  float64
	DataUtil float64 // mean per-channel data utilization
	// McfIPC singles out the bandwidth-bound benchmark, which has the
	// most to gain from serving misses on channels concurrently.
	McfIPC float64
}

// InterleaveResult evaluates the Section 6 question of "complex
// interleaving of the multiple channels": the paper's simply
// interleaved (ganged) organization moves every block over all
// channels at once, while independent channels serve whole blocks
// concurrently — trading per-miss latency for miss-level parallelism.
type InterleaveResult struct {
	Rows []InterleaveRow
}

// Interleave runs ganged vs independent at 64B and 256B blocks.
func (r *Runner) Interleave() (*InterleaveResult, error) {
	configs := []struct {
		name  string
		il    string
		block int
	}{
		{"ganged, 64B blocks", "ganged", 64},
		{"independent, 64B blocks", "independent", 64},
		{"ganged, 256B blocks", "ganged", 256},
		{"independent, 256B blocks", "independent", 256},
	}
	cfgs := make([]core.Config, len(configs))
	for i, c := range configs {
		cfgs[i] = core.Base()
		cfgs[i].Mapping = "xor"
		cfgs[i].Interleaving = c.il
		cfgs[i].L2Block = c.block
	}
	all, err := r.RunBenches(cfgs...)
	if err != nil {
		return nil, err
	}
	res := &InterleaveResult{}
	for ci, c := range configs {
		results := all[ci]
		row := InterleaveRow{Name: c.name, MeanIPC: hmean(ipcs(results))}
		var utils []float64
		for i, b := range r.opt.Benchmarks {
			utils = append(utils, results[i].DataUtilization())
			if b == "mcf" {
				row.McfIPC = results[i].IPC
			}
		}
		row.DataUtil = stats.Mean(utils)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Write renders the result as text.
func (ir *InterleaveResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 6 extension: channel interleaving organization")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "organization\thmean IPC\tdata util\tmcf IPC")
	for _, row := range ir.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.3f\n",
			row.Name, row.MeanIPC, stats.Pct(row.DataUtil), row.McfIPC)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nganged channels cut each block's transfer time 4x; independent")
	fmt.Fprintln(w, "channels serve up to 4 misses concurrently — which wins depends on")
	fmt.Fprintln(w, "whether the workload is latency- or parallelism-limited")
	return nil
}
