package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
)

// BlockSizes is the L2 block-size sweep of Section 3.2 (64 bytes to
// the 8KB virtual page).
var BlockSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// blockName formats a block size like the paper's tables.
func blockName(b int) string {
	if b >= 1024 {
		return fmt.Sprintf("%dK", b/1024)
	}
	return fmt.Sprintf("%d", b)
}

// Table1Row is one benchmark's sweep.
type Table1Row struct {
	Bench     string
	MissRates []float64 // by BlockSizes index
	IPCs      []float64
	// PollutionPoint is the block size minimizing miss rate;
	// PerformancePoint the block size maximizing IPC.
	PollutionPoint, PerformancePoint int
}

// Table1Result reproduces Table 1: pollution and performance points
// per benchmark on the 4-channel system.
type Table1Result struct {
	Rows []Table1Row
	// MeanIPC is the harmonic-mean IPC per block size; OverallPerf is
	// its argmax (the paper finds 128 bytes, with 256 negligibly
	// close).
	MeanIPC     []float64
	OverallPerf int
}

// Table1 runs the block-size sweep.
func (r *Runner) Table1() (*Table1Result, error) {
	cfgs := make([]core.Config, len(BlockSizes))
	for si, blk := range BlockSizes {
		cfgs[si] = core.Base()
		cfgs[si].L2Block = blk
	}
	bySize, err := r.RunBenches(cfgs...)
	if err != nil {
		return nil, err
	}

	res := &Table1Result{}
	for bi, bench := range r.opt.Benchmarks {
		row := Table1Row{Bench: bench}
		for _, results := range bySize {
			row.MissRates = append(row.MissRates, results[bi].L2MissRate())
			row.IPCs = append(row.IPCs, results[bi].IPC)
		}
		row.PollutionPoint = BlockSizes[minIdx(row.MissRates)]
		row.PerformancePoint = BlockSizes[maxIdx(row.IPCs)]
		res.Rows = append(res.Rows, row)
	}
	for _, results := range bySize {
		res.MeanIPC = append(res.MeanIPC, hmean(ipcs(results)))
	}
	res.OverallPerf = BlockSizes[maxIdx(res.MeanIPC)]
	return res, nil
}

// Write renders the result as text.
func (t *Table1Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: pollution and performance points (4 channels, 6.4 GB/s)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "bench")
	for _, b := range BlockSizes {
		fmt.Fprintf(tw, "\tIPC@%s", blockName(b))
	}
	fmt.Fprint(tw, "\tPerf.\tPoll.\n")
	for _, row := range t.Rows {
		fmt.Fprintf(tw, "%s", row.Bench)
		for _, ipc := range row.IPCs {
			fmt.Fprintf(tw, "\t%.2f", ipc)
		}
		fmt.Fprintf(tw, "\t%s\t%s\n", blockName(row.PerformancePoint), blockName(row.PollutionPoint))
	}
	fmt.Fprint(tw, "hmean")
	for _, m := range t.MeanIPC {
		fmt.Fprintf(tw, "\t%.2f", m)
	}
	fmt.Fprintf(tw, "\t%s\t\n", blockName(t.OverallPerf))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\noverall performance point: %s bytes (paper: 128, with 256 negligibly close)\n", blockName(t.OverallPerf))
	fmt.Fprintln(w, "paper: pollution points average ~2KB, far above performance points")
	return nil
}
