package core

import (
	"testing"

	"memsim/internal/workload"
)

// TestParkedCoreWakeTriggers pins the core's parking rule: after a
// refusal the core skips retrying its oldest blocked access until the
// hierarchy unparks it, on a fill delivery or on a hardware prefetch
// entering flight. Paranoid checks every cycle assert that a parked
// access would still be refused, so dropping either trigger fails the
// run with an invariant violation. Tuned mcf keeps every MSHR busy with
// independent misses. Under independent interleaving one controller
// can issue a prefetch while the core is parked on a demand miss bound
// for another, which exercises the prefetch trigger; the test counts
// those prefetches so the run keeps doing so.
func TestParkedCoreWakeTriggers(t *testing.T) {
	independent := Tuned()
	independent.Interleaving = "independent"
	for name, cfg := range map[string]Config{"tuned": Tuned(), "independent": independent} {
		t.Run(name, func(t *testing.T) {
			cfg.WarmupInstrs, cfg.MaxInstrs = 0, 3_000
			cfg.Harden = HardenConfig{Paranoid: true, ParanoidEvery: 1}
			p, err := workload.ByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			gen, err := p.Generator(1, false)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := New(cfg, gen)
			if err != nil {
				t.Fatal(err)
			}
			// Each cycle, count the checks that find the core parked and
			// the prefetch fills that entered flight for the block it
			// was parked on at the previous check: the invariant had that
			// block out of flight then.
			parkedChecks, parkedPrefetches := 0, 0
			var block uint64
			wasParked := false
			sys.sched.Every(sys.clock.Period(), func() bool {
				if f := sys.fills.find(block); wasParked && f != nil && f.kind == prefetchReq {
					parkedPrefetches++
				}
				addr, ok := sys.core.Parked()
				if wasParked = ok; ok {
					parkedChecks++
					block = sys.l2.BlockAddr(addr % sys.capacity)
				}
				return !sys.core.Done()
			})
			if _, err := sys.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if parkedChecks == 0 {
				t.Error("the core never parked: the run exercises no refusal")
			}
			if name == "independent" && parkedPrefetches == 0 {
				t.Error("no prefetch entered flight for a parked access's block")
			}
			t.Logf("%d cycles parked, %d prefetches for a parked block", parkedChecks, parkedPrefetches)
		})
	}
}
