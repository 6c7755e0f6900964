package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
)

// CacheSizesMB is the L2 capacity sweep of Section 4.5.
var CacheSizesMB = []int{1, 2, 4, 8, 16}

// CacheSizeResult reproduces Section 4.5: baseline and prefetching
// performance as the L2 grows from 1MB to 16MB.
type CacheSizeResult struct {
	// BaseIPC and PFIPC are harmonic-mean IPCs per size.
	BaseIPC, PFIPC []float64
	// BaseSpeedup is baseline speedup over the 1MB baseline;
	// PFGain is the prefetching gain at each size.
	BaseSpeedup, PFGain []float64
}

// CacheSize runs the capacity sweep.
func (r *Runner) CacheSize() (*CacheSizeResult, error) {
	var cfgs []core.Config
	for _, mb := range CacheSizesMB {
		base, pf := core.Base(), core.Tuned()
		base.Mapping = "xor"
		base.L2Size = int64(mb) << 20
		pf.L2Size = base.L2Size
		cfgs = append(cfgs, base, pf)
	}
	all, err := r.RunBenches(cfgs...)
	if err != nil {
		return nil, err
	}
	res := &CacheSizeResult{}
	for i := 0; i < len(all); i += 2 {
		res.BaseIPC = append(res.BaseIPC, hmean(ipcs(all[i])))
		res.PFIPC = append(res.PFIPC, hmean(ipcs(all[i+1])))
	}
	for i := range CacheSizesMB {
		res.BaseSpeedup = append(res.BaseSpeedup, res.BaseIPC[i]/res.BaseIPC[0])
		res.PFGain = append(res.PFGain, res.PFIPC[i]/res.BaseIPC[i])
	}
	return res, nil
}

// Write renders the result as text.
func (c *CacheSizeResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.5: implications of multi-megabyte caches")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "L2 size\thmean IPC\t+prefetch\tbase speedup vs 1MB\tprefetch gain")
	for i, mb := range CacheSizesMB {
		fmt.Fprintf(tw, "%dMB\t%.3f\t%.3f\t%+.0f%%\t%+.0f%%\n",
			mb, c.BaseIPC[i], c.PFIPC[i],
			100*(c.BaseSpeedup[i]-1), 100*(c.PFGain[i]-1))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: baseline speedups 6%/19%/38%/47% at 2/4/8/16MB;")
	fmt.Fprintln(w, "prefetching gain stays 16-20% across all sizes")
	return nil
}
