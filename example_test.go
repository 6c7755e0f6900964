package memsim_test

import (
	"fmt"

	"memsim"
)

// The simplest complete run: a few memory operations through the base
// system. Deterministic, so the output is exact.
func ExampleRun() {
	ops := []memsim.Op{
		{NonMem: 9, Addr: 0x10000, Kind: memsim.Load},
		{NonMem: 9, Addr: 0x10040, Kind: memsim.Load},
		{NonMem: 9, Addr: 0x10000, Kind: memsim.Store},
	}
	cfg := memsim.BaseConfig()
	cfg.MaxInstrs = 0 // run the trace out
	res, err := memsim.Run(cfg, memsim.Trace(ops))
	if err != nil {
		panic(err)
	}
	// The store issues while the first load's fill is still in
	// flight, so it counts as a third (merged) miss.
	fmt.Printf("retired %d instructions, %d L2 misses\n", res.Instrs, res.L2.Misses)
	// Output: retired 30 instructions, 3 L2 misses
}

// Comparing the base and tuned systems on one benchmark is the
// package's one-line story.
func ExampleRunBenchmark() {
	cfg := memsim.TunedConfig()
	cfg.MaxInstrs = 20_000
	res, err := memsim.RunBenchmark(cfg, "swim")
	if err != nil {
		panic(err)
	}
	fmt.Println(res.IPC > 0 && res.IPC <= 4)
	// Output: true
}

// A custom workload characterizes an application not in the suite.
func ExampleCustomWorkload() {
	params := memsim.WorkloadParams{
		WorkingSet:    8 << 20,
		ResidentBytes: 128 << 10,
		MemFraction:   0.1,
		StreamWeight:  0.8,
		Streams:       2,
		ElemBytes:     8,
		Coverage:      1.0,
	}
	cfg := memsim.BaseConfig()
	cfg.MaxInstrs = 10_000
	gen, err := memsim.CustomWorkload(params, 42, cfg)
	if err != nil {
		panic(err)
	}
	res, err := memsim.Run(cfg, gen)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Instrs >= 9_000)
	// Output: true
}
