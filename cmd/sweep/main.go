// Command sweep runs one benchmark across a parameter sweep and emits
// CSV, for plotting or regression tracking.
//
//	sweep -bench swim -param block -values 64,128,256,512,1024
//	sweep -bench mcf -param channels -values 1,2,4,8 -prefetch
//	sweep -bench applu -param l2mb -values 1,2,4,8,16
//	sweep -bench facerec -param region -values 1024,2048,4096,8192 -prefetch
//
// Columns: param value, IPC, L2 miss rate, mean miss latency (cycles),
// command and data utilization, prefetch accuracy, and a status column
// ("ok", or "FAILED: reason" for points lost under -keep-going).
//
// Each point runs through cmd/experiments' batch runner, so long
// sweeps get the same resilience:
// -timeout-per-run bounds a point's wall-clock time and -retries
// re-attempts a point that overran it (a watchdog abort recurs at the
// same simulated time, so it is never retried),
// -keep-going emits a FAILED row instead of aborting the sweep, and
// -checkpoint/-resume skip points an earlier (possibly interrupted)
// sweep already finished. Rows already written are always flushed
// before exit, even when a point fails mid-sweep.
//
// Exit status: 0 complete, 1 failed, 3 degraded (-keep-going lost
// points), 130 interrupted.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"memsim/internal/core"
	"memsim/internal/experiments"
	"memsim/internal/sim"
	"memsim/internal/vfs"
)

const (
	exitOK          = 0
	exitFailed      = 1
	exitDegraded    = 3
	exitInterrupted = 130
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	w := csv.NewWriter(os.Stdout)
	code, err := sweep(ctx, flag.CommandLine, os.Args[1:], w, os.Stderr)
	// Flush unconditionally: rows simulated before a mid-sweep failure
	// must reach the output, error or not.
	w.Flush()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
	}
	if werr := w.Error(); werr != nil {
		fmt.Fprintln(os.Stderr, "sweep:", werr)
		if code == exitOK {
			code = exitFailed
		}
	}
	os.Exit(code)
}

// sweep parses args on fs and runs the sweep, writing CSV rows to w
// and warnings about recoverable trouble to diag.
// The swept knob and every value are checked against core.Knobs, and
// without -keep-going every point is validated, before the header is
// written, so a bad -param or -values leaves no output.
func sweep(ctx context.Context, fs *flag.FlagSet, args []string, w *csv.Writer, diag io.Writer) (code int, err error) {
	params := map[string]*core.Knob{}
	var names []string
	for i, k := range core.Knobs {
		if k.Param != "" {
			params[k.Param] = &core.Knobs[i]
			names = append(names, k.Param)
		}
	}
	var (
		bench  = fs.String("bench", "swim", "benchmark profile")
		param  = fs.String("param", "block", "swept parameter: "+strings.Join(names, ", "))
		values = fs.String("values", "64,128,256,512", "comma-separated values")
		pf     = fs.Bool("prefetch", false, "enable tuned region prefetching")
		xor    = fs.Bool("xor", true, "use the XOR address mapping")
		instrs = fs.Uint64("instrs", 300_000, "measured instructions")
		warmup = fs.Uint64("warmup", 1_200_000, "warmup instructions")
		seed   = fs.Uint64("seed", 0, "workload sample seed")

		timeout = fs.Duration("timeout-per-run", 0,
			"wall-clock budget per point; overruns abort and may retry (0 = none)")
		retries = fs.Int("retries", 0,
			"extra attempts for points aborted by -timeout-per-run (watchdog aborts are deterministic and never retried)")
		keepGoing = fs.Bool("keep-going", false,
			"emit a FAILED row for lost points instead of aborting the sweep")
		checkpoint = fs.String("checkpoint", "",
			"manifest directory recording every completed point, one record per point")
		resume = fs.Bool("resume", false,
			"load the -checkpoint manifest and skip points it already holds (a single-file manifest of older builds is imported)")
	)
	if err := fs.Parse(args); err != nil {
		return exitFailed, err
	}

	knob := params[*param]
	if knob == nil {
		return exitFailed, fmt.Errorf("unknown parameter %q (one of %s)", *param, strings.Join(names, ", "))
	}
	knobs := core.Overrides{}
	if *xor {
		knobs["mapping"] = "xor"
	}
	if *pf {
		knobs["prefetch"] = true
	}
	var points []any
	var cfgs []core.Config
	for _, raw := range strings.Split(*values, ",") {
		v, err := knob.Parse(strings.TrimSpace(raw))
		if err != nil {
			return exitFailed, fmt.Errorf("bad value %q: %v", raw, err)
		}
		knobs[knob.Name] = v
		cfg, err := core.Base().Apply(knobs)
		// Without -keep-going an invalid point would end the sweep, so
		// it ends it here, before any output.
		if err == nil && !*keepGoing {
			err = cfg.Validate()
		}
		if err != nil {
			return exitFailed, fmt.Errorf("%s=%v: %w", *param, v, err)
		}
		points, cfgs = append(points, v), append(cfgs, cfg)
	}

	if *resume && *checkpoint == "" {
		return exitFailed, fmt.Errorf("-resume requires -checkpoint")
	}
	manifest, err := experiments.OpenManifest(vfs.OS, *checkpoint) // in memory without -checkpoint
	if err != nil {
		return exitFailed, err
	}
	if q := manifest.Quarantined(); q != "" {
		fmt.Fprintf(diag, "sweep: checkpoint %s held corrupt data (quarantined as %s); its points run again\n", *checkpoint, q)
	}
	if !*resume && manifest.Len() > 0 {
		return exitFailed, fmt.Errorf("checkpoint %s already holds %d completed points; add -resume to reuse them", *checkpoint, manifest.Len())
	}
	// Retry failed checkpoint writes on every exit, so even an aborted
	// sweep leaves a resumable record.
	defer func() {
		serr := manifest.Save()
		switch {
		case serr == nil:
		case err == nil:
			code, err = exitFailed, serr
		default:
			fmt.Fprintln(diag, "sweep: checkpoint save failed:", serr)
		}
	}()

	// Each point is a one-spec batch: the runner resolves it from the
	// checkpoint or simulates it under the per-point deadline and retry
	// policy, recording it in the manifest.
	runner, err := experiments.NewRunner(experiments.Options{
		Instrs:        *instrs,
		Warmup:        *warmup,
		Benchmarks:    []string{*bench},
		Parallelism:   1,
		Seed:          *seed,
		Context:       ctx,
		TimeoutPerRun: *timeout,
		Retries:       *retries,
		Checkpoint:    manifest,
	})
	if err != nil {
		return exitFailed, err
	}

	if err := w.Write([]string{*param, "ipc", "l2_miss_rate", "miss_latency_cycles",
		"cmd_util", "data_util", "pf_accuracy", "status"}); err != nil {
		return exitFailed, err
	}

	degraded := false
	for i, cfg := range cfgs {
		v := points[i]
		results, err := runner.RunBenches(cfg)
		if err != nil {
			if ctx.Err() != nil {
				return exitInterrupted, fmt.Errorf("interrupted at %s=%v: %w", *param, v, context.Cause(ctx))
			}
			pointErr := fmt.Errorf("%s=%v: %w", *param, v, err)
			if !*keepGoing {
				return exitFailed, pointErr
			}
			degraded = true
			fmt.Fprintln(diag, "sweep:", pointErr, "(continuing)")
			if werr := w.Write([]string{fmt.Sprint(v), "", "", "", "", "", "",
				"FAILED: " + experiments.FirstLine(err)}); werr != nil {
				return exitFailed, werr
			}
			w.Flush()
			continue
		}
		res := results[0][0]
		clock := sim.NewClock(cfg.ClockHz)
		rec := []string{
			fmt.Sprint(v),
			fmt.Sprintf("%.4f", res.IPC),
			fmt.Sprintf("%.4f", res.L2MissRate()),
			fmt.Sprintf("%.1f", res.MeanMissLatencyCycles(clock)),
			fmt.Sprintf("%.4f", res.CommandUtilization()),
			fmt.Sprintf("%.4f", res.DataUtilization()),
			fmt.Sprintf("%.4f", res.PrefetchAccuracy()),
			"ok",
		}
		if err := w.Write(rec); err != nil {
			return exitFailed, err
		}
		w.Flush()
	}
	if degraded {
		return exitDegraded, nil
	}
	return exitOK, nil
}
