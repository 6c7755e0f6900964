package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"memsim/internal/core"
	"memsim/internal/stats"
)

// Fig5Row is one benchmark's bar cluster in Figure 5.
type Fig5Row struct {
	Bench string
	// 4-channel, 64-byte block stack.
	Base4, XOR4, PF4 float64
	// 8-channel, 256-byte block pair.
	XOR8, PF8 float64
	// PerfectL2 is the upper bound.
	PerfectL2 float64
}

// Fig5Result reproduces Figure 5: the tuned scheduled region
// prefetching summary. Winners are the benchmarks improving at least
// 10% from prefetching on the 4-channel XOR system.
type Fig5Result struct {
	Rows    []Fig5Row // all benchmarks, winners first
	Winners []string
	// Mean speedups over the winner set.
	XORSpeedup4    float64 // XOR over base, 4ch
	PFSpeedup4     float64 // PF over XOR, 4ch
	PF8Speedup     float64 // 8ch/256B+PF over 4ch base
	GapToPerfectL2 float64 // PF8 vs perfect L2 (harmonic means, winners)
}

// Fig5 runs the six configurations.
func (r *Runner) Fig5() (*Fig5Result, error) {
	base4 := core.Base()

	xor4 := base4
	xor4.Mapping = "xor"

	pf4 := xor4
	pf4.Prefetch = core.TunedPrefetch()

	xor8 := xor4
	xor8.Channels = 8
	xor8.DevicesPerChannel = 1
	xor8.L2Block = 256

	pf8 := xor8
	pf8.Prefetch = core.TunedPrefetch()

	pl2 := base4
	pl2.PerfectL2 = true

	configs := []core.Config{base4, xor4, pf4, xor8, pf8, pl2}
	all := make([][]core.Result, len(configs))
	for i, cfg := range configs {
		results, err := r.RunBenches(cfg, false)
		if err != nil {
			return nil, err
		}
		all[i] = results
	}

	res := &Fig5Result{}
	var winnerIdx []int
	var rows []Fig5Row
	for i, b := range r.opt.Benchmarks {
		row := Fig5Row{
			Bench:     b,
			Base4:     all[0][i].IPC,
			XOR4:      all[1][i].IPC,
			PF4:       all[2][i].IPC,
			XOR8:      all[3][i].IPC,
			PF8:       all[4][i].IPC,
			PerfectL2: all[5][i].IPC,
		}
		rows = append(rows, row)
		if row.PF4 >= 1.10*row.XOR4 {
			winnerIdx = append(winnerIdx, i)
			res.Winners = append(res.Winners, b)
		}
	}
	// Winners first, then the rest, preserving suite order within each.
	for _, i := range winnerIdx {
		res.Rows = append(res.Rows, rows[i])
	}
	for i, row := range rows {
		if row.PF4 < 1.10*row.XOR4 {
			_ = i
			res.Rows = append(res.Rows, row)
		}
	}

	pick := func(results []core.Result) []float64 {
		var out []float64
		for _, i := range winnerIdx {
			out = append(out, results[i].IPC)
		}
		return out
	}
	if len(winnerIdx) > 0 {
		hmBase4 := hmean(pick(all[0]))
		hmXOR4 := hmean(pick(all[1]))
		hmPF4 := hmean(pick(all[2]))
		hmPF8 := hmean(pick(all[4]))
		hmPL2 := hmean(pick(all[5]))
		res.XORSpeedup4 = hmXOR4 / hmBase4
		res.PFSpeedup4 = hmPF4 / hmXOR4
		res.PF8Speedup = hmPF8 / hmBase4
		res.GapToPerfectL2 = stats.LostFraction(hmPF8, hmPL2)
	}
	return res, nil
}

// Write renders the result as text.
func (f *Fig5Result) Write(w io.Writer) error {
	fmt.Fprintln(w, "Figure 5: overall performance of tuned scheduled region prefetching")
	fmt.Fprintln(w, "(winners — benchmarks gaining >=10% from prefetching — listed first)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\t4ch/64B\t+XOR\t+XOR+PF\t8ch/256B+XOR\t+PF\tperfect L2")
	for _, row := range f.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			row.Bench, row.Base4, row.XOR4, row.PF4, row.XOR8, row.PF8, row.PerfectL2)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwinners (%d): %v\n", len(f.Winners), f.Winners)
	fmt.Fprintf(w, "winner means: XOR %+.0f%%, prefetch %+.0f%% on top, 8ch/256B+PF %+.0f%% over base,\n",
		100*(f.XORSpeedup4-1), 100*(f.PFSpeedup4-1), 100*(f.PF8Speedup-1))
	fmt.Fprintf(w, "gap to perfect L2 at 8ch: %s\n", stats.Pct(f.GapToPerfectL2))
	fmt.Fprintln(w, "paper: 10 winners (applu equake facerec fma3d gap mesa mgrid parser swim wupwise);")
	fmt.Fprintln(w, "XOR +33%, prefetch +43%, 8ch+PF +118% over base, within 10% of perfect L2")
	return nil
}
