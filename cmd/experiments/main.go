// Command experiments regenerates the paper's tables and figures.
//
//	experiments -list                 # show available experiment ids
//	experiments -run fig5             # one experiment
//	experiments -run fig1,table4      # several
//	experiments                       # the full reproduction suite
//
// Budgets scale with -instrs/-warmup; -bench restricts the workload
// suite for quick looks.
//
// Long batches survive trouble instead of dying overnight:
//
//	experiments -timeout-per-run 5m -retries 2   # bound and re-attempt overrunning runs
//	experiments -keep-going                      # finish the batch, mark lost cells FAILED
//	experiments -checkpoint runs                 # record every completed run
//	experiments -checkpoint runs -resume         # skip specs an earlier batch finished
//
// SIGINT and SIGTERM both cancel in-flight runs at event-loop
// granularity and flush the checkpoint before exit, so a `-resume`
// rerun picks up where the interrupted batch stopped whether the
// interruption was a Ctrl-C or a supervisor's `kill`. A second signal
// skips the graceful path and exits immediately.
//
// Exit status: 0 when every run completed, 1 on a hard failure, 3 when
// the batch finished degraded (some runs failed under -keep-going),
// 130 when interrupted by SIGINT, 143 by SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"memsim/internal/experiments"
	"memsim/internal/vfs"
)

// Exit codes; complete, degraded, and failed batches are
// distinguishable to calling scripts, and the two interruption
// signals report the conventional 128+signo so a supervisor can tell
// its own SIGTERM from an operator's Ctrl-C.
const (
	exitOK          = 0
	exitFailed      = 1
	exitDegraded    = 3
	exitInterrupted = 130 // 128 + SIGINT
	exitTerminated  = 143 // 128 + SIGTERM
)

// sigExitCode maps an interruption signal to its conventional exit
// status.
func sigExitCode(sig os.Signal) int {
	if sig == syscall.SIGTERM {
		return exitTerminated
	}
	return exitInterrupted
}

func main() { os.Exit(run()) }

func run() int {
	opt := experiments.Defaults()
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		list     = flag.Bool("list", false, "list experiments and exit")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all 26)")
		seed     = flag.Uint64("seed", 0, "workload sample seed offset")
		instrs   = flag.Uint64("instrs", opt.Instrs, "measured instructions per run")
		warmup   = flag.Uint64("warmup", opt.Warmup, "warmup instructions per run")
		paranoid = flag.Bool("paranoid", false,
			"enable cross-layer invariant checking on every run")
		watchdog = flag.Int64("watchdog-cycles", 0,
			"abort a run after this many core cycles without forward progress (0 = off)")
		timeout = flag.Duration("timeout-per-run", 0,
			"wall-clock budget per simulation; overruns abort and may retry (0 = none)")
		retries = flag.Int("retries", 0,
			"extra attempts for runs aborted by -timeout-per-run (watchdog aborts are deterministic and never retried)")
		backoff = flag.Duration("retry-backoff", time.Second,
			"pause before the first retry, doubling per attempt")
		keepGoing = flag.Bool("keep-going", false,
			"finish the batch when runs fail: mark their cells FAILED and exit 3")
		checkpoint = flag.String("checkpoint", "",
			"manifest directory recording every completed run, one record per spec")
		metrics = flag.Bool("metrics", false,
			"arm the metrics registry on every run; with -checkpoint, manifest entries carry metric deltas")
		resume = flag.Bool("resume", false,
			"load the -checkpoint manifest and skip specs it already holds (a single-file manifest of older builds is imported)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-11s %s\n", e.ID, e.Paper)
		}
		return exitOK
	}

	if *resume && *checkpoint == "" {
		return fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	manifest, err := experiments.OpenManifest(vfs.OS, *checkpoint) // in memory without -checkpoint
	if err != nil {
		return fatal(err)
	}
	if q := manifest.Quarantined(); q != "" {
		fmt.Fprintf(os.Stderr, "experiments: checkpoint %s held corrupt data (quarantined as %s); its specs run again\n", *checkpoint, q)
	}
	switch {
	case *resume:
		fmt.Fprintf(os.Stderr, "experiments: resuming from %s (%d completed specs)\n", *checkpoint, manifest.Len())
	case manifest.Len() > 0:
		// Without -resume finished specs are neither reused nor overwritten.
		return fatal(fmt.Errorf("checkpoint %s already holds %d completed specs; add -resume to reuse them", *checkpoint, manifest.Len()))
	}

	// Both SIGINT (Ctrl-C) and SIGTERM (a supervisor's kill) take the
	// graceful path: cancel the batch context so in-flight runs stop at
	// event-loop granularity and the manifest flushes before exit. The
	// exit code records which signal arrived; a second signal of either
	// kind exits immediately with the conventional status, bypassing
	// the flush — that is the operator's escape hatch, not the normal
	// shutdown.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	var exitSig atomic.Int32
	go func() {
		sig, ok := <-sigs
		if !ok {
			return
		}
		exitSig.Store(int32(sigExitCode(sig)))
		cancel(fmt.Errorf("received %v", sig))
		if sig, ok = <-sigs; ok {
			os.Exit(sigExitCode(sig))
		}
	}()

	opt.Instrs = *instrs
	opt.Warmup = *warmup
	opt.Seed = *seed
	opt.Harden.Paranoid = *paranoid
	opt.Harden.WatchdogCycles = *watchdog
	opt.Context = ctx
	opt.TimeoutPerRun = *timeout
	opt.Retries = *retries
	opt.RetryBackoff = *backoff
	opt.KeepGoing = *keepGoing
	opt.Checkpoint = manifest
	opt.Obs.Metrics = *metrics
	if *bench != "" {
		opt.Benchmarks = strings.Split(*bench, ",")
	}
	runner, err := experiments.NewRunner(opt)
	if err != nil {
		return fatal(err)
	}

	selected := experiments.All()
	if *runIDs != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return fatal(err)
			}
			selected = append(selected, e)
		}
	}

	hardFailed := false
	for i, e := range selected {
		if ctx.Err() != nil {
			break
		}
		if i > 0 {
			fmt.Println()
			fmt.Println(strings.Repeat("=", 72))
			fmt.Println()
		}
		start := time.Now()
		if err := e.Run(runner, os.Stdout); err != nil {
			if ctx.Err() != nil {
				break
			}
			err = fmt.Errorf("%s: %w", e.ID, err)
			if !*keepGoing {
				flushManifest(manifest)
				return fatal(err)
			}
			hardFailed = true
			fmt.Fprintln(os.Stderr, "experiments:", err)
			fmt.Fprintf(os.Stderr, "experiments: continuing past %s (-keep-going)\n", e.ID)
			continue
		}
		fmt.Printf("\n[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	flushManifest(manifest)
	c := runner.Counts()
	fmt.Fprintf(os.Stderr, "experiments: %d simulated, %d reused (repeats and checkpoint), %d retried, %d failed\n",
		c.Completed, c.Reused, c.Retried, c.Failed)

	switch {
	case ctx.Err() != nil:
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "experiments: interrupted (%v); rerun with -checkpoint %s -resume to continue\n",
				context.Cause(ctx), *checkpoint)
		} else {
			fmt.Fprintf(os.Stderr, "experiments: interrupted (%v)\n", context.Cause(ctx))
		}
		if code := int(exitSig.Load()); code != 0 {
			return code
		}
		return exitInterrupted
	case hardFailed:
		return exitFailed
	case c.Failed > 0:
		return exitDegraded
	default:
		return exitOK
	}
}

// flushManifest retries failed checkpoint writes so even an aborting
// batch leaves a resumable checkpoint.
func flushManifest(m *experiments.Manifest) {
	if err := m.Save(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	return exitFailed
}
