package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
)

// ChannelWidths is the physical channel sweep of Section 3.3.
var ChannelWidths = []int{1, 2, 4, 8, 16, 32}

// table2TotalDevices holds the total device count constant across the
// sweep, as the paper does. The paper's exact count is not stated; we
// use 32 devices (the minimum that populates every channel at the
// 32-channel point), so the 4-channel row has 8 devices per channel.
const table2TotalDevices = 32

// Table2Result reproduces Table 2: harmonic-mean IPC for each channel
// width and block size, and the performance point per width.
type Table2Result struct {
	// IPC[wi][si] indexes ChannelWidths x BlockSizes.
	IPC [][]float64
	// PerfPoint[wi] is the block size maximizing mean IPC at that width.
	PerfPoint []int
}

// Table2 runs the channel-width sweep.
func (r *Runner) Table2() (*Table2Result, error) {
	var cfgs []core.Config
	for _, ch := range ChannelWidths {
		for _, blk := range BlockSizes {
			cfg := core.Base()
			cfg.Channels = ch
			cfg.DevicesPerChannel = table2TotalDevices / ch
			cfg.L2Block = blk
			cfgs = append(cfgs, cfg)
		}
	}
	all, err := r.RunBenches(cfgs...)
	if err != nil {
		return nil, err
	}

	res := &Table2Result{}
	for len(all) > 0 {
		var row []float64
		for _, results := range all[:len(BlockSizes)] {
			row = append(row, hmean(ipcs(results)))
		}
		all = all[len(BlockSizes):]
		res.IPC = append(res.IPC, row)
		res.PerfPoint = append(res.PerfPoint, BlockSizes[maxIdx(row)])
	}
	return res, nil
}

// Write renders the result as text.
func (t *Table2Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Table 2: channel width vs. performance points (harmonic-mean IPC)")
	fmt.Fprintf(w, "(total devices held constant at %d, so wider configurations have fewer devices per channel)\n\n", table2TotalDevices)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "channels")
	for _, b := range BlockSizes {
		fmt.Fprintf(tw, "\t%s", blockName(b))
	}
	fmt.Fprint(tw, "\tperf point\n")
	for wi, ch := range ChannelWidths {
		fmt.Fprintf(tw, "%d", ch)
		for _, ipc := range t.IPC[wi] {
			fmt.Fprintf(tw, "\t%.2f", ipc)
		}
		fmt.Fprintf(tw, "\t%s\n", blockName(t.PerfPoint[wi]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: the performance point shifts to larger blocks as channels widen")
	fmt.Fprintln(w, "(256B at 4 channels, 512B at 8; best overall was 1KB blocks on 32 channels)")
	return nil
}
