// Command memsim simulates one benchmark on one memory-system
// configuration and prints the full measurement record.
//
// Examples:
//
//	memsim -bench swim
//	memsim -bench mcf -mapping xor -prefetch -instrs 2000000
//	memsim -bench applu -channels 8 -block 256 -l2 4MB -part 800-50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memsim"
	"memsim/internal/channel"
	"memsim/internal/core"
	"memsim/internal/sim"
	"memsim/internal/vfs"
)

func main() {
	knobs := core.Overrides{}
	core.RegisterFlags(flag.CommandLine, knobs)
	var (
		bench    = flag.String("bench", "swim", "benchmark profile (see -list)")
		list     = flag.Bool("list", false, "list benchmark profiles and exit")
		instrs   = flag.Uint64("instrs", 500_000, "measured instructions")
		warmup   = flag.Uint64("warmup", 1_500_000, "warmup instructions before measurement")
		seed     = flag.Uint64("seed", 0, "workload sample seed offset")
		paranoid = flag.Bool("paranoid", false, "enable cross-layer invariant checking")
		watchdog = flag.Int64("watchdog-cycles", 1_000_000,
			"abort after this many core cycles without forward progress (0 = off)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
		traceEvents = flag.Int("trace-events", 0, "trace ring capacity in events (0 = default 65536)")
		metricsOut  = flag.String("metrics-out", "", "write metrics in Prometheus text exposition format")
		metricsJSON = flag.String("metrics-json", "", "write metrics as a JSON snapshot")
		samplesOut  = flag.String("samples-out", "", "write the sampled metrics timeline as JSON")
		sample      = flag.Duration("sample", 0,
			"simulated-time interval between timeline samples (e.g. 50us); 0 disables sampling")
	)
	flag.Parse()

	if *list {
		for _, p := range memsim.Profiles() {
			fmt.Printf("%-9s %s\n", p.Name, p.Notes)
		}
		return
	}

	cfg, err := memsim.BaseConfig().Apply(knobs)
	if err != nil {
		fatal(err)
	}
	if cfg.Counterfactual && *traceOut == "" {
		fatal(fmt.Errorf("-counterfactual requires -trace-out: the decision trace is its only output"))
	}
	cfg.MaxInstrs = *instrs
	cfg.WarmupInstrs = *warmup
	cfg.Harden.Paranoid = *paranoid
	cfg.Harden.WatchdogCycles = *watchdog

	cfg.Obs = memsim.ObsConfig{
		Metrics:     *metricsOut != "" || *metricsJSON != "",
		Trace:       *traceOut != "",
		TraceEvents: *traceEvents,
		SampleEvery: sim.FromDuration(*sample),
	}
	if *samplesOut != "" && cfg.Obs.SampleEvery <= 0 {
		fatal(fmt.Errorf("-samples-out requires a positive -sample interval"))
	}

	gen, err := memsim.Workload(*bench, *seed, cfg)
	if err != nil {
		fatal(err)
	}
	sys, err := memsim.NewSystem(cfg, gen)
	if err != nil {
		fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	report(*bench, cfg, res)
	if err := exportObs(sys.Obs(), *traceOut, *metricsOut, *metricsJSON, *samplesOut); err != nil {
		fatal(err)
	}
}

// exportObs writes the enabled observability outputs after a run,
// through the vfs seam so the artifact writers share the durable
// writers' fault-injection surface.
func exportObs(ob *memsim.Observer, traceOut, metricsOut, metricsJSON, samplesOut string) error {
	write := func(path string, emit func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := vfs.OS.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(traceOut, ob.Tracer.WriteChromeTrace); err != nil {
		return err
	}
	if err := write(metricsOut, ob.Registry.WritePrometheus); err != nil {
		return err
	}
	if err := write(metricsJSON, ob.Registry.WriteJSON); err != nil {
		return err
	}
	return write(samplesOut, ob.Timeline.WriteJSON)
}

func report(bench string, cfg memsim.Config, res memsim.Result) {
	clock := sim.NewClock(cfg.ClockHz)
	fmt.Printf("benchmark      %s\n", bench)
	fmt.Printf("system         %dch/%dB blocks, %s mapping, %s, L2 %dKB\n",
		cfg.Channels, cfg.L2Block, cfg.Mapping, cfg.Timing.Name, cfg.L2Size>>10)
	fmt.Printf("instructions   %d (+%d warmup)\n", res.Instrs, cfg.WarmupInstrs)
	fmt.Printf("cycles         %d\n", res.Cycles)
	fmt.Printf("IPC            %.4f\n", res.IPC)
	fmt.Printf("L1             %d accesses, %.2f%% miss\n", res.L1.Accesses, 100*res.L1.MissRate())
	fmt.Printf("L2             %d accesses, %.2f%% miss, mean miss latency %.0f cycles\n",
		res.L2.Accesses, 100*res.L2MissRate(), res.MeanMissLatencyCycles(clock))
	fmt.Printf("row buffer     demand %.1f%%, writeback %.1f%%, prefetch %.1f%% hit\n",
		100*res.RowHitRate(channel.Demand), 100*res.RowHitRate(channel.Writeback),
		100*res.RowHitRate(channel.Prefetch))
	fmt.Printf("channel        command %.1f%%, data %.1f%% utilized\n",
		100*res.CommandUtilization(), 100*res.DataUtilization())
	if cfg.Prefetch.Enabled {
		fmt.Printf("prefetch       %d issued, %.1f%% accuracy, %d late merges, %d regions (%d replaced)\n",
			res.Prefetch.Issued, 100*res.PrefetchAccuracy(), res.LateMerges,
			res.Prefetch.RegionsCreated, res.Prefetch.RegionsReplaced)
	}
	if cfg.SoftwarePrefetch {
		fmt.Printf("sw prefetch    %d fills\n", res.SWPrefetches)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memsim:", err)
	os.Exit(1)
}
