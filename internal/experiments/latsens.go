package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/dram"
)

// latSensParts lists the DRDRAM parts of the Section 4.6 sensitivity
// study; with DRAM latencies held constant these correspond to 2.0,
// 1.6, and 1.3 GHz effective core clocks.
var latSensParts = []dram.Timing{dram.Part800x34, dram.Part800x40, dram.Part800x50}

// LatSensResult reproduces Section 4.6: prefetching gain versus the
// processor clock / DRAM speed ratio.
type LatSensResult struct {
	Parts  []string
	Base   []float64 // hmean IPC without prefetch
	PF     []float64 // hmean IPC with prefetch
	PFGain []float64
}

// LatSens runs the DRAM latency sensitivity sweep.
func (r *Runner) LatSens() (*LatSensResult, error) {
	res := &LatSensResult{}
	for _, part := range latSensParts {
		base := core.Base()
		base.Mapping = "xor"
		base.Timing = part
		pf := base
		pf.Prefetch = core.TunedPrefetch()

		baseRes, err := r.RunBenches(base, false)
		if err != nil {
			return nil, err
		}
		pfRes, err := r.RunBenches(pf, false)
		if err != nil {
			return nil, err
		}
		hmB := hmean(ipcs(baseRes))
		hmP := hmean(ipcs(pfRes))
		res.Parts = append(res.Parts, part.Name)
		res.Base = append(res.Base, hmB)
		res.PF = append(res.PF, hmP)
		res.PFGain = append(res.PFGain, hmP/hmB)
	}
	return res, nil
}

// Write renders the result as text.
func (l *LatSensResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.6: sensitivity to DRAM latencies")
	fmt.Fprintln(w, "(800-34 ~ a 2.0 GHz clock ratio; 800-40 the base 1.6 GHz; 800-50 ~ 1.3 GHz)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "part\thmean IPC\t+prefetch\tgain")
	for i, p := range l.Parts {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.1f%%\n", p, l.Base[i], l.PF[i], 100*(l.PFGain[i]-1))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: gains are relatively insensitive to the clock/DRAM ratio")
	fmt.Fprintln(w, "(15.6% at the slow ratio vs 14.2%; under 1% change at the fast one)")
	return nil
}
