package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/policy"
	"memsim/internal/sim"
	"memsim/internal/stats"
)

// SchedZooResult compares every registered issue policy on the tuned
// system. The rows come from the policy registry, so a newly registered
// scheduling scheme shows up here without touching the experiment.
type SchedZooResult struct {
	Rows []SchedRow
}

// SchedZoo runs the comparison.
func (r *Runner) SchedZoo() (*SchedZooResult, error) {
	names := policy.Sched.Names()
	cfgs := make([]core.Config, len(names))
	for i, name := range names {
		cfg, err := core.Tuned().Apply(core.Overrides{"sched_policy": name})
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	all, err := r.RunBenches(cfgs...)
	if err != nil {
		return nil, err
	}
	return &SchedZooResult{Rows: schedRows(names, all)}, nil
}

// Write renders the result as text.
func (sz *SchedZooResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Policy zoo: registered issue policies on the tuned system (XOR + PF)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\thmean IPC\tdemand row-hit\treordered")
	for _, row := range sz.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%d\n",
			row.Name, row.MeanIPC, stats.Pct(row.ReadHit), row.Reordered)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nfcfs is the paper's in-order issue; frfcfs promotes any open-row request;")
	fmt.Fprintln(w, "frfcfs-cap bounds the promotion window to 8 to limit starvation")
	return nil
}

// TimingZooResult compares every registered bank-timing scheme on the
// tuned system: the paper's flat DRDRAM activate, TL-DRAM-style tiered
// rows, and ChargeCache-style recent-row reuse.
type TimingZooResult struct {
	Rows []TimingZooRow
}

// TimingZooRow is one bank-timing scheme's suite-wide summary.
type TimingZooRow struct {
	Name      string
	MeanIPC   float64
	ReadHit   float64 // mean demand row-buffer hit rate
	MissLatNs float64 // mean demand miss latency in ns
}

// TimingZoo runs the comparison.
func (r *Runner) TimingZoo() (*TimingZooResult, error) {
	names := policy.Timings.Names()
	cfgs := make([]core.Config, len(names))
	for i, name := range names {
		cfgs[i] = core.Tuned()
		cfgs[i].BankTiming = name
	}
	all, err := r.RunBenches(cfgs...)
	if err != nil {
		return nil, err
	}
	res := &TimingZooResult{}
	for i, results := range all {
		var hits, lats []float64
		for _, rr := range results {
			hits = append(hits, rr.RowHitRate(0))
			lats = append(lats, float64(rr.Ctrl.MeanDemandLatency())/float64(sim.Nanosecond))
		}
		res.Rows = append(res.Rows, TimingZooRow{
			Name:      names[i],
			MeanIPC:   hmean(ipcs(results)),
			ReadHit:   stats.Mean(hits),
			MissLatNs: stats.Mean(lats),
		})
	}
	return res, nil
}

// Write renders the result as text.
func (tz *TimingZooResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Policy zoo: registered bank-timing schemes on the tuned system (XOR + PF)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "timing\thmean IPC\tdemand row-hit\tmean miss latency")
	for _, row := range tz.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.0f ns\n",
			row.Name, row.MeanIPC, stats.Pct(row.ReadHit), row.MissLatNs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntiered halves activate latency for the near row segment; rowreuse takes a")
	fmt.Fprintln(w, "fast activate when a recently-closed row is re-opened before its charge decays")
	return nil
}
