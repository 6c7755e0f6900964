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
	"strconv"
	"strings"

	"memsim"
	"memsim/internal/cache"
	"memsim/internal/channel"
	"memsim/internal/dram"
	"memsim/internal/policy"
	"memsim/internal/sim"
	"memsim/internal/vfs"
)

func main() {
	var (
		bench    = flag.String("bench", "swim", "benchmark profile (see -list)")
		list     = flag.Bool("list", false, "list benchmark profiles and exit")
		mapping  = flag.String("mapping", "base", "address mapping: "+strings.Join(policy.Mappings.Names(), ", "))
		channels = flag.Int("channels", 4, "physical Rambus channels")
		devices  = flag.Int("devices", 0, "devices per channel (default keeps 8 total)")
		block    = flag.Int("block", 64, "L2 block size in bytes")
		l2size   = flag.String("l2", "1MB", "L2 capacity (e.g. 1MB, 4MB)")
		part     = flag.String("part", "800-40", "DRDRAM part: 800-40, 800-50, or 800-34")
		pf       = flag.Bool("prefetch", false, "enable tuned scheduled region prefetching")
		scheme   = flag.String("scheme", "region", "prefetch scheme: "+strings.Join(policy.Prefetchers.Names(), ", "))
		region   = flag.Int("region", 4096, "prefetch region bytes")
		reorder  = flag.Int("reorder", 0, "open-row-first reorder window (0 = in-order)")
		sched    = flag.String("sched", "", "issue policy: "+strings.Join(policy.Sched.Names(), ", ")+" (default: derived from -reorder)")
		banktime = flag.String("banktiming", "", "bank timing scheme: "+strings.Join(policy.Timings.Names(), ", ")+" (default flat)")
		counter  = flag.Bool("counterfactual", false, "trace what each alternative policy would have decided (requires -trace-out)")
		refresh  = flag.Bool("refresh", false, "model DRAM refresh")
		interlv  = flag.String("interleaving", "ganged", "channel organization: "+strings.Join(policy.Interleavings.Names(), ", "))
		insert   = flag.String("insert", "LRU", "prefetch insertion priority, one of "+fmt.Sprint(cache.Positions))
		fifo     = flag.Bool("fifo", false, "use FIFO region prioritization instead of LIFO")
		unsched  = flag.Bool("unscheduled", false, "issue prefetches as ordinary requests (Table 4 pathology)")
		swpf     = flag.Bool("swprefetch", false, "execute software prefetch instructions")
		perfL2   = flag.Bool("perfect-l2", false, "make every L2 access hit")
		perfMem  = flag.Bool("perfect-mem", false, "make every L1 access hit")
		instrs   = flag.Uint64("instrs", 500_000, "measured instructions")
		warmup   = flag.Uint64("warmup", 1_500_000, "warmup instructions before measurement")
		seed     = flag.Uint64("seed", 0, "workload sample seed offset")
		clock    = flag.Float64("ghz", 1.6, "core clock in GHz")
		paranoid = flag.Bool("paranoid", false, "enable cross-layer invariant checking")
		watchdog = flag.Int64("watchdog-cycles", 1_000_000,
			"abort after this many core cycles without forward progress (0 = off)")
		injectSpec = flag.String("inject", "",
			"inject a fault: class[:after], e.g. drop-completion:10 (see DESIGN.md)")
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

	cfg := memsim.BaseConfig()
	cfg.ClockHz = *clock * 1e9
	cfg.Mapping = *mapping
	cfg.Channels = *channels
	if *devices > 0 {
		cfg.DevicesPerChannel = *devices
	} else {
		cfg.DevicesPerChannel = max(1, 8 / *channels)
	}
	cfg.L2Block = *block
	cfg.PerfectL2 = *perfL2
	cfg.PerfectMem = *perfMem
	cfg.SoftwarePrefetch = *swpf
	cfg.MaxInstrs = *instrs
	cfg.WarmupInstrs = *warmup

	size, err := parseSize(*l2size)
	if err != nil {
		fatal(err)
	}
	cfg.L2Size = size

	timing, err := dram.PartByName(*part)
	if err != nil {
		fatal(err)
	}
	cfg.Timing = timing

	cfg.ReorderWindow = *reorder
	cfg.SchedPolicy = *sched
	cfg.BankTiming = *banktime
	cfg.Counterfactual = *counter
	if *counter && *traceOut == "" {
		fatal(fmt.Errorf("-counterfactual requires -trace-out: the decision trace is its only output"))
	}
	cfg.Refresh = *refresh
	cfg.Interleaving = *interlv
	if *pf {
		cfg.Prefetch = memsim.TunedPrefetch()
		cfg.Prefetch.Scheme = *scheme
		cfg.Prefetch.Lookahead = 8
		cfg.Prefetch.RegionBytes = *region
		cfg.Prefetch.Scheduled = !*unsched
		if *fifo {
			cfg.Prefetch.Policy = memsim.FIFO
			cfg.Prefetch.BankAware = false
		}
		cfg.Prefetch.Insert, err = insertPos(*insert)
		if err != nil {
			fatal(err)
		}
	}

	cfg.Harden.Paranoid = *paranoid
	cfg.Harden.WatchdogCycles = *watchdog
	plan, err := memsim.ParseInject(*injectSpec)
	if err != nil {
		fatal(err)
	}
	cfg.Harden.Inject = plan

	cfg.Obs = memsim.ObsConfig{
		Metrics:     *metricsOut != "" || *metricsJSON != "",
		Trace:       *traceOut != "",
		TraceEvents: *traceEvents,
		SampleEvery: sim.Time(sample.Nanoseconds()) * sim.Nanosecond,
	}
	if *samplesOut != "" && cfg.Obs.SampleEvery <= 0 {
		fatal(fmt.Errorf("-samples-out requires a positive -sample interval"))
	}

	gen, err := memsim.Workload(*bench, *seed, *swpf)
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

// insertPos resolves an insertion priority by name, in any case.
func insertPos(name string) (cache.InsertPos, error) {
	for _, p := range cache.Positions {
		if strings.EqualFold(p.String(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown insertion priority %q", name)
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

// parseSize understands "64KB", "1MB", "1048576".
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memsim:", err)
	os.Exit(1)
}
