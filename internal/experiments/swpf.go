package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/stats"
)

// SWPFRow is one benchmark's software-prefetching interaction.
type SWPFRow struct {
	Bench string
	// Base is the XOR system without software prefetches; SW adds
	// them; Region uses hardware region prefetching only;
	// Both combines them.
	Base, SW, Region, Both float64
}

// SWGain is software prefetching's effect on the base system.
func (r SWPFRow) SWGain() float64 { return stats.Speedup(r.Base, r.SW) }

// SWOnRegionGain is software prefetching's residual effect once region
// prefetching is enabled.
func (r SWPFRow) SWOnRegionGain() float64 { return stats.Speedup(r.Region, r.Both) }

// SWPFResult reproduces Section 4.7: the interaction of compiler
// software prefetching with scheduled region prefetching.
type SWPFResult struct {
	Rows []SWPFRow
}

// SWPF runs the four configurations per benchmark.
func (r *Runner) SWPF() (*SWPFResult, error) {
	base := core.Base()
	base.Mapping = "xor"

	sw := base
	sw.SoftwarePrefetch = true

	both := core.Tuned()
	both.SoftwarePrefetch = true

	// SoftwarePrefetch both emits the instructions and executes them;
	// the base and region runs see a stream without them.
	all, err := r.RunBenches(base, sw, core.Tuned(), both)
	if err != nil {
		return nil, err
	}

	res := &SWPFResult{}
	for i, b := range r.opt.Benchmarks {
		res.Rows = append(res.Rows, SWPFRow{
			Bench:  b,
			Base:   all[0][i].IPC,
			SW:     all[1][i].IPC,
			Region: all[2][i].IPC,
			Both:   all[3][i].IPC,
		})
	}
	return res, nil
}

// Write renders the result as text.
func (s *SWPFResult) Write(w io.Writer) error {
	fmt.Fprintln(w, "Section 4.7: interaction with software prefetching")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tbase\t+SW\t+region\t+both\tSW gain\tSW gain on region")
	for _, row := range s.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%+.0f%%\t%+.0f%%\n",
			row.Bench, row.Base, row.SW, row.Region, row.Both,
			100*(row.SWGain()-1), 100*(row.SWOnRegionGain()-1))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: software prefetching helps mgrid +23%, swim +39%, wupwise +10%,")
	fmt.Fprintln(w, "hurts galgel -11%; region prefetching subsumes those gains (<=2% residual),")
	fmt.Fprintln(w, "and software prefetch overhead then hurts mgrid/swim slightly")
	return nil
}
