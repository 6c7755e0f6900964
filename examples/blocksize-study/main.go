// Blocksize-study: reproduce the Section 3.2 trade-off on a single
// workload — larger L2 blocks exploit spatial locality until bandwidth
// contention (the performance point) and eventually cache pollution
// (the pollution point) take over.
//
// The example sweeps a scientific-kernel-like streaming workload and a
// pointer-chasing workload to show the two regimes the paper
// contrasts.
package main

import (
	"fmt"
	"log"

	"memsim"
)

var blockSizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192}

func main() {
	workloads := []struct {
		name string
		p    memsim.WorkloadParams
	}{
		{
			// A stencil-style kernel: dense streams, large working set.
			name: "streaming stencil",
			p: memsim.WorkloadParams{
				WorkingSet: 32 << 20, ResidentBytes: 256 << 10,
				MemFraction: 0.10, StoreFraction: 0.2,
				StreamWeight: 0.85, Streams: 4, ElemBytes: 8, Coverage: 1.0,
			},
		},
		{
			// A graph traversal: dependent scattered references.
			name: "pointer chasing",
			p: memsim.WorkloadParams{
				WorkingSet: 8 << 20, ResidentBytes: 256 << 10,
				MemFraction: 0.10, ChaseWeight: 0.6, DependentChase: true,
			},
		},
	}

	for _, wl := range workloads {
		fmt.Printf("%s:\n", wl.name)
		fmt.Printf("  %8s %10s %14s %12s\n", "block", "IPC", "L2 miss rate", "miss latency")
		var bestIPC float64
		bestBlock := 0
		var minMiss float64 = 1
		pollBlock := 0
		for _, blk := range blockSizes {
			cfg := memsim.BaseConfig()
			cfg.L2Block = blk
			cfg.Mapping = "xor"
			cfg.MaxInstrs = 150_000
			cfg.WarmupInstrs = 600_000
			gen, err := memsim.CustomWorkload(wl.p, 1, cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := memsim.Run(cfg, gen)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %7dB %10.3f %13.1f%% %11d\n",
				blk, res.IPC, 100*res.L2MissRate(), res.Ctrl.MeanDemandLatency()/625)
			if res.IPC > bestIPC {
				bestIPC, bestBlock = res.IPC, blk
			}
			if res.L2MissRate() < minMiss {
				minMiss, pollBlock = res.L2MissRate(), blk
			}
		}
		fmt.Printf("  performance point: %dB   pollution point: %dB\n\n", bestBlock, pollBlock)
	}
	fmt.Println("Streaming workloads keep their miss rate falling to large blocks")
	fmt.Println("(pollution point >> performance point), while pointer chasing gains")
	fmt.Println("nothing and pays queueing delay — the Table 1 structure.")
}
