// Command tracegen inspects the synthetic workload generators: it
// prints a sample of the instruction stream or summary statistics of a
// longer sample, which is how the profiles were calibrated against the
// paper's per-benchmark characterizations.
//
//	tracegen -bench mcf -n 20                  # dump 20 operations
//	tracegen -bench swim -summary              # stream statistics
//	tracegen -bench swim -record 1e6 -o t.bin  # capture a binary trace
//	tracegen -replay t.bin -summary            # analyze a captured trace
package main

import (
	"flag"
	"fmt"
	"os"

	"memsim"
	"memsim/internal/trace"
	"memsim/internal/vfs"
)

func main() {
	var (
		bench   = flag.String("bench", "swim", "benchmark profile")
		n       = flag.Int("n", 20, "operations to dump")
		summary = flag.Bool("summary", false, "print stream statistics instead of a dump")
		samples = flag.Int("samples", 200_000, "operations to analyze with -summary")
		swpf    = flag.Bool("swprefetch", false, "emit software prefetch instructions")
		seed    = flag.Uint64("seed", 0, "sample seed offset")
		record  = flag.Uint64("record", 0, "capture this many operations to -o and exit")
		out     = flag.String("o", "trace.bin", "output file for -record")
		replay  = flag.String("replay", "", "read operations from a captured trace file instead of a profile")
	)
	flag.Parse()

	var gen memsim.Generator
	var err error
	if *replay != "" {
		f, ferr := os.Open(*replay)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		gen, err = trace.NewFileReader(f)
	} else {
		cfg := memsim.BaseConfig()
		cfg.SoftwarePrefetch = *swpf
		gen, err = memsim.Workload(*bench, *seed, cfg)
	}
	if err != nil {
		fatal(err)
	}

	if *record > 0 {
		f, ferr := vfs.OS.Create(*out)
		if ferr != nil {
			fatal(ferr)
		}
		written, werr := trace.WriteFile(f, gen, *record)
		if werr == nil {
			werr = f.Close()
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("wrote %d operations to %s\n", written, *out)
		return
	}

	if !*summary {
		for i := 0; i < *n; i++ {
			op, ok := gen.Next()
			if !ok {
				break
			}
			dep := ""
			if op.DependsOnPrev {
				dep = " (depends on prev load)"
			}
			fmt.Printf("%3d: %2d non-mem, %-10s %#010x%s\n", i, op.NonMem, op.Kind, op.Addr, dep)
		}
		return
	}

	var (
		instrs, loads, stores, prefetches, deps uint64
		blocks                                  = map[uint64]bool{}
		minAddr                                 = ^uint64(0)
		maxAddr                                 uint64
	)
	for i := 0; i < *samples; i++ {
		op, ok := gen.Next()
		if !ok {
			break
		}
		instrs += op.Instructions()
		switch op.Kind {
		case memsim.Load:
			loads++
		case memsim.Store:
			stores++
		case memsim.SWPrefetch:
			prefetches++
		}
		if op.DependsOnPrev {
			deps++
		}
		blocks[op.Addr/64] = true
		if op.Addr < minAddr {
			minAddr = op.Addr
		}
		if op.Addr > maxAddr {
			maxAddr = op.Addr
		}
	}
	memOps := loads + stores + prefetches
	source := *bench
	if *replay != "" {
		source = *replay
	}
	fmt.Printf("source           %s\n", source)
	fmt.Printf("instructions     %d (%d memory ops, %.1f%%)\n", instrs, memOps, 100*float64(memOps)/float64(instrs))
	fmt.Printf("loads/stores/pf  %d / %d / %d\n", loads, stores, prefetches)
	fmt.Printf("dependent loads  %.1f%% of memory ops\n", 100*float64(deps)/float64(memOps))
	fmt.Printf("distinct blocks  %d (footprint touched %.1f MB)\n", len(blocks), float64(len(blocks))*64/1e6)
	fmt.Printf("address range    %#x .. %#x\n", minAddr, maxAddr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
