package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
)

// SchemeRow summarizes one prefetch address-generation scheme.
type SchemeRow struct {
	Scheme string
	// MeanIPC is the suite harmonic mean; WinnerIPC restricts to the
	// paper's ten region-prefetching winners.
	MeanIPC, WinnerIPC float64
	// Speedup and WinnerSpeedup are relative to no prefetching.
	Speedup, WinnerSpeedup float64
}

// SchemesResult compares the paper's region prefetcher against the
// related-work address-generation schemes of Section 5 — sequential
// next-N prefetching (Smith) and stride-directed stream prefetching
// (Baer-Chen / Palacharla-Kessler / Zhang-McKee) — all behind the same
// scheduled, low-priority-insertion machinery, which the paper argues
// is independent of the address generator.
type SchemesResult struct {
	Rows []SchemeRow
}

// paperWinners is the set Figure 5 reports gaining at least 10%.
var paperWinners = map[string]bool{
	"applu": true, "equake": true, "facerec": true, "fma3d": true,
	"gap": true, "mesa": true, "mgrid": true, "parser": true,
	"swim": true, "wupwise": true,
}

// Schemes runs the comparison.
func (r *Runner) Schemes() (*SchemesResult, error) {
	base := core.Base()
	base.Mapping = "xor"

	region := base
	region.Prefetch = core.TunedPrefetch()

	sequential := base
	sequential.Prefetch = core.TunedPrefetch()
	sequential.Prefetch.Scheme = "sequential"
	sequential.Prefetch.Lookahead = 8

	stream := base
	stream.Prefetch = core.TunedPrefetch()
	stream.Prefetch.Scheme = "stream"
	stream.Prefetch.Lookahead = 8
	stream.Prefetch.TableSize = 8

	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"none", base},
		{"sequential", sequential},
		{"stream (stride)", stream},
		{"region (paper)", region},
	}

	winnerIPCs := func(results []core.Result) []float64 {
		var out []float64
		for i, b := range r.opt.Benchmarks {
			if paperWinners[b] {
				out = append(out, results[i].IPC)
			}
		}
		return out
	}

	res := &SchemesResult{}
	var baseMean, baseWinner float64
	for i, c := range configs {
		results, err := r.RunBenches(c.cfg)
		if err != nil {
			return nil, err
		}
		row := SchemeRow{
			Scheme:  c.name,
			MeanIPC: hmean(ipcs(results)),
		}
		if w := winnerIPCs(results); len(w) > 0 {
			row.WinnerIPC = hmean(w)
		}
		if i == 0 {
			baseMean, baseWinner = row.MeanIPC, row.WinnerIPC
		}
		row.Speedup = safeRatio(row.MeanIPC, baseMean)
		row.WinnerSpeedup = safeRatio(row.WinnerIPC, baseWinner)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Write renders the result as text.
func (s *SchemesResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 5 baselines: prefetch address-generation schemes")
	fmt.Fprintln(w, "(all schemes use idle-channel scheduling and LRU insertion)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\thmean IPC\tspeedup\twinner hmean\twinner speedup")
	for _, row := range s.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%+.1f%%\t%.3f\t%+.1f%%\n",
			row.Scheme, row.MeanIPC, 100*(row.Speedup-1),
			row.WinnerIPC, 100*(row.WinnerSpeedup-1))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper (Section 5): with large caches, integrated controllers, and")
	fmt.Fprintln(w, "multiple channels, aggressive region prefetching profitably outruns")
	fmt.Fprintln(w, "the conservative stream schemes of prior work")
	return nil
}
