package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/stats"
)

// RegionSizes is the Section 4.2 region-size sweep.
var RegionSizes = []int{1024, 2048, 4096, 8192}

// RegionSizeResult reproduces the paper's region-size finding: 4KB is
// best; gains fall off below 2KB and plateau above 4KB.
type RegionSizeResult struct {
	Sizes []int
	IPC   []float64 // hmean with prefetching at each region size
	NoPF  float64   // hmean without prefetching
}

// RegionSize runs the sweep on the tuned system.
func (r *Runner) RegionSize() (*RegionSizeResult, error) {
	base := core.Base()
	base.Mapping = "xor"
	baseRes, err := r.RunBenches(base, false)
	if err != nil {
		return nil, err
	}

	res := &RegionSizeResult{Sizes: RegionSizes, NoPF: hmean(ipcs(baseRes))}
	for _, sz := range RegionSizes {
		cfg := base
		cfg.Prefetch = core.TunedPrefetch()
		cfg.Prefetch.RegionBytes = sz
		results, err := r.RunBenches(cfg, false)
		if err != nil {
			return nil, err
		}
		res.IPC = append(res.IPC, hmean(ipcs(results)))
	}
	return res, nil
}

// Write renders the result as text.
func (rs *RegionSizeResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.2 (ablation): prefetch region size")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "no prefetch\t%.3f\t\n", rs.NoPF)
	for i, sz := range rs.Sizes {
		fmt.Fprintf(tw, "%s regions\t%.3f\t%+.1f%%\n", blockName(sz), rs.IPC[i], 100*(rs.IPC[i]/rs.NoPF-1))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: 4KB best; improvement drops below 2KB; beyond 4KB negligible")
	return nil
}

// QueueDepths is the prefetch-queue ablation (the paper fixes a small
// queue of region entries without sweeping it; this quantifies the
// choice).
var QueueDepths = []int{1, 2, 4, 8, 16, 32}

// QueueDepthResult reports tuned-system performance versus the number
// of region entries in the prefetch queue.
type QueueDepthResult struct {
	Depths []int
	IPC    []float64
}

// QueueDepth runs the sweep.
func (r *Runner) QueueDepth() (*QueueDepthResult, error) {
	res := &QueueDepthResult{Depths: QueueDepths}
	for _, d := range QueueDepths {
		cfg := core.Base()
		cfg.Mapping = "xor"
		cfg.Prefetch = core.TunedPrefetch()
		cfg.Prefetch.QueueDepth = d
		results, err := r.RunBenches(cfg, false)
		if err != nil {
			return nil, err
		}
		res.IPC = append(res.IPC, hmean(ipcs(results)))
	}
	return res, nil
}

// Write renders the result as text.
func (q *QueueDepthResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Ablation: prefetch queue depth (region entries)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "depth\thmean IPC")
	for i, d := range q.Depths {
		fmt.Fprintf(tw, "%d\t%.3f\n", d, q.IPC[i])
	}
	return tw.Flush()
}

// ThrottleResult evaluates the accuracy throttle the paper proposes in
// Sections 4.4 and 6: suppress prefetching when on-line accuracy is
// low, trading a little performance for much less useless bandwidth.
type ThrottleResult struct {
	// Tuned vs throttled, suite-wide.
	TunedIPC, ThrottledIPC           float64
	TunedDataUtil, ThrottledDataUtil float64
	// LowAccRows details the low-accuracy benchmarks, where the
	// bandwidth saving concentrates.
	LowAccRows []ThrottleRow
}

// ThrottleRow is one benchmark's throttle outcome.
type ThrottleRow struct {
	Bench               string
	Accuracy            float64
	SpeedupFromThrottle float64
	DataUtilBefore      float64
	DataUtilAfter       float64
}

// Throttle runs the comparison.
func (r *Runner) Throttle() (*ThrottleResult, error) {
	tuned := core.Base()
	tuned.Mapping = "xor"
	tuned.Prefetch = core.TunedPrefetch()

	throttled := tuned
	throttled.Prefetch.ThrottleAccuracy = 0.10
	throttled.Prefetch.ThrottleWindow = 256

	tunedRes, err := r.RunBenches(tuned, false)
	if err != nil {
		return nil, err
	}
	thrRes, err := r.RunBenches(throttled, false)
	if err != nil {
		return nil, err
	}

	res := &ThrottleResult{
		TunedIPC:     hmean(ipcs(tunedRes)),
		ThrottledIPC: hmean(ipcs(thrRes)),
	}
	var du1, du2 []float64
	for i, b := range r.opt.Benchmarks {
		du1 = append(du1, tunedRes[i].DataUtilization())
		du2 = append(du2, thrRes[i].DataUtilization())
		if acc := tunedRes[i].PrefetchAccuracy(); acc < accuracyCutoff {
			res.LowAccRows = append(res.LowAccRows, ThrottleRow{
				Bench:               b,
				Accuracy:            acc,
				SpeedupFromThrottle: stats.Speedup(tunedRes[i].IPC, thrRes[i].IPC),
				DataUtilBefore:      tunedRes[i].DataUtilization(),
				DataUtilAfter:       thrRes[i].DataUtilization(),
			})
		}
	}
	res.TunedDataUtil = stats.Mean(du1)
	res.ThrottledDataUtil = stats.Mean(du2)
	return res, nil
}

// Write renders the result as text.
func (t *ThrottleResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Sections 4.4/6 (extension): accuracy-based prefetch throttling")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "suite hmean IPC: tuned %.3f, throttled %.3f (%+.1f%%)\n",
		t.TunedIPC, t.ThrottledIPC, 100*(t.ThrottledIPC/t.TunedIPC-1))
	fmt.Fprintf(w, "mean data-channel utilization: %s -> %s\n\n",
		stats.Pct(t.TunedDataUtil), stats.Pct(t.ThrottledDataUtil))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "low-accuracy bench\taccuracy\tIPC change\tdata util before\tafter")
	for _, row := range t.LowAccRows {
		fmt.Fprintf(tw, "%s\t%s\t%+.1f%%\t%s\t%s\n",
			row.Bench, stats.Pct(row.Accuracy), 100*(row.SpeedupFromThrottle-1),
			stats.Pct(row.DataUtilBefore), stats.Pct(row.DataUtilAfter))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: \"counters could measure prefetch accuracy on-line and throttle")
	fmt.Fprintln(w, "the prefetch engine if the accuracy is sufficiently low\" (Section 4.4)")
	return nil
}
