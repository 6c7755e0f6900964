package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/stats"
)

// ReorderResult evaluates the Section 6 extension of issuing queued
// demand misses and writebacks open-row-first instead of strictly in
// order, with and without region prefetching.
type ReorderResult struct {
	// Rows: {in-order, reorder} x {no PF, PF}.
	Rows []SchedRow
}

// SchedRow is one scheduling configuration's suite-wide summary.
type SchedRow struct {
	Name      string
	MeanIPC   float64
	ReadHit   float64 // mean demand row-buffer hit rate
	Reordered uint64  // total requests promoted past older entries
}

// schedRows summarizes each named configuration's results.
func schedRows(names []string, all [][]core.Result) []SchedRow {
	rows := make([]SchedRow, len(all))
	for i, results := range all {
		var hits []float64
		var reordered uint64
		for _, rr := range results {
			hits = append(hits, rr.RowHitRate(0))
			reordered += rr.Ctrl.Reordered
		}
		rows[i] = SchedRow{
			Name:      names[i],
			MeanIPC:   hmean(ipcs(results)),
			ReadHit:   stats.Mean(hits),
			Reordered: reordered,
		}
	}
	return rows
}

// Reorder runs the comparison.
func (r *Runner) Reorder() (*ReorderResult, error) {
	inOrder, inOrderPF := core.Base(), core.Tuned()
	inOrder.Mapping = "xor"
	reorder, reorderPF := inOrder, inOrderPF
	reorder.SchedPolicy, reorder.ReorderWindow = "frfcfs-cap", 8
	reorderPF.SchedPolicy, reorderPF.ReorderWindow = "frfcfs-cap", 8
	all, err := r.RunBenches(inOrder, reorder, inOrderPF, reorderPF)
	if err != nil {
		return nil, err
	}
	names := []string{"in-order", "reorder(8)", "in-order + PF", "reorder(8) + PF"}
	return &ReorderResult{Rows: schedRows(names, all)}, nil
}

// Write renders the result as text.
func (rr *ReorderResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 6 extension: open-row-first demand/writeback reordering")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\thmean IPC\tdemand row-hit\treordered")
	for _, row := range rr.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%d\n",
			row.Name, row.MeanIPC, stats.Pct(row.ReadHit), row.Reordered)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper (Section 5): demand misses issue in order because general-purpose")
	fmt.Fprintln(w, "codes expose few simultaneous non-speculative accesses; the gain from")
	fmt.Fprintln(w, "reordering them is accordingly modest next to region prefetching")
	return nil
}

// RefreshResult quantifies DRAM refresh, which the paper's model
// omits: the bandwidth and row-buffer cost of one refresh every ~2us.
type RefreshResult struct {
	BaseIPC, RefreshIPC float64
	Refreshes           uint64
	// TunedBase/TunedRefresh repeat the comparison with prefetching.
	TunedBaseIPC, TunedRefreshIPC float64
}

// Refresh runs the comparison.
func (r *Runner) Refresh() (*RefreshResult, error) {
	base, tuned := core.Base(), core.Tuned()
	base.Mapping = "xor"
	refresh, tunedRefresh := base, tuned
	refresh.Refresh, tunedRefresh.Refresh = true, true
	all, err := r.RunBenches(base, refresh, tuned, tunedRefresh)
	if err != nil {
		return nil, err
	}
	res := &RefreshResult{
		BaseIPC:         hmean(ipcs(all[0])),
		RefreshIPC:      hmean(ipcs(all[1])),
		TunedBaseIPC:    hmean(ipcs(all[2])),
		TunedRefreshIPC: hmean(ipcs(all[3])),
	}
	for _, rr := range all[1] {
		res.Refreshes += rr.Channel.Refreshes
	}
	return res, nil
}

// Write renders the result as text.
func (rf *RefreshResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Extension: DRAM refresh cost (one refresh per ~2us per channel)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "configuration\thmean IPC\twith refresh\tcost")
	fmt.Fprintf(tw, "base (XOR)\t%.3f\t%.3f\t%.2f%%\n",
		rf.BaseIPC, rf.RefreshIPC, 100*(1-rf.RefreshIPC/rf.BaseIPC))
	fmt.Fprintf(tw, "tuned (XOR+PF)\t%.3f\t%.3f\t%.2f%%\n",
		rf.TunedBaseIPC, rf.TunedRefreshIPC, 100*(1-rf.TunedRefreshIPC/rf.TunedBaseIPC))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d refresh operations injected across the suite\n", rf.Refreshes)
	fmt.Fprintln(w, "refresh is a second-order effect, supporting the paper's choice to omit it")
	return nil
}
