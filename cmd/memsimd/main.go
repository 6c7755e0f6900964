// Command memsimd serves memory-hierarchy simulations over HTTP.
//
//	memsimd -state /var/lib/memsimd -listen :8080
//
// Jobs arrive as JSON on POST /jobs (config preset + overrides,
// benchmark list, budgets), run on a bounded worker pool, and are
// queryable at GET /jobs/{id} with results at /jobs/{id}/result and a
// CSV artifact at /jobs/{id}/artifact. GET /metrics serves the server
// and admission counters in Prometheus text format.
//
// The daemon is crash-safe over its state directory: job records and
// one service manifest of finished specs persist atomically. Every job
// resolves its specs through that manifest, so a spec any earlier job
// or earlier daemon on the same -state finished is reused, not
// simulated, and a killed daemon restarted over the same -state resumes
// interrupted jobs without re-running finished specs — and, the
// simulator being deterministic, produces bit-identical results.
//
// SIGINT/SIGTERM begin a graceful drain: new submissions get 503,
// running jobs keep their finished specs in the manifest and return to
// the queue, then the daemon exits. A second signal exits immediately.
//
// Exit codes follow the experiments taxonomy: 0 clean drain, 1 hard
// failure, 3 degraded (drain timed out; state may lag reality by one
// flush), 130/143 second SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memsim/internal/server"
	"memsim/internal/vfs"
)

const (
	exitOK       = 0
	exitFailure  = 1
	exitDegraded = 3
)

// sigExitCode maps a fatal signal to the conventional 128+N exit code.
func sigExitCode(sig os.Signal) int {
	if sig == syscall.SIGTERM {
		return 143
	}
	return 130 // SIGINT and anything else
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "address to serve HTTP on")
		stateDir     = flag.String("state", "memsimd-state", "directory for the job store and checkpoints")
		workers      = flag.Int("workers", 2, "concurrently executing jobs")
		queueDepth   = flag.Int("queue", 64, "admission watermark on waiting jobs")
		rate         = flag.Float64("rate", 5, "per-client submissions per second (<0 disables)")
		burst        = flag.Int("burst", 10, "per-client submission burst")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a signaled daemon waits for jobs to checkpoint")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "memsimd: ", log.LstdFlags)

	svc, err := server.New(server.Config{
		StateDir:   *stateDir,
		Workers:    *workers,
		QueueDepth: *queueDepth,
		RatePerSec: *rate,
		Burst:      *burst,
		FS:         vfs.OS,
		Logger:     logger,
	})
	if err != nil {
		logger.Print(err)
		return exitFailure
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Print(err)
		return exitFailure
	}
	logger.Printf("serving on http://%s (state: %s)", ln.Addr(), *stateDir)

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	var sig os.Signal
	select {
	case sig = <-sigs:
		logger.Printf("received %v; draining (in-flight jobs checkpoint and requeue)", sig)
	case err := <-serveErr:
		logger.Printf("serve: %v", err)
		return exitFailure
	}

	// A second signal during the drain exits immediately with the
	// conventional code; the atomic store keeps crash safety anyway.
	go func() {
		s := <-sigs
		logger.Printf("received %v again; exiting immediately", s)
		os.Exit(sigExitCode(s))
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := svc.Drain(ctx); err != nil {
		logger.Printf("drain degraded: %v", err)
		return exitDegraded
	}
	logger.Print("drain complete")
	return exitOK
}
