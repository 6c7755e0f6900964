package core

import (
	"testing"

	"memsim/internal/workload"
)

func TestIndependentChannelsRun(t *testing.T) {
	cfg := Base()
	cfg.Interleaving = "independent"
	res := runProfile(t, cfg, "equake", 50_000)
	if res.Groups != 4 {
		t.Fatalf("Groups = %d, want 4", res.Groups)
	}
	if res.Instrs < 49_000 {
		t.Fatalf("retired %d", res.Instrs)
	}
	if res.Channel.Accesses[0] == 0 {
		t.Fatal("no demand traffic recorded across groups")
	}
}

func TestIndependentChannelsOverlapMisses(t *testing.T) {
	// Independent misses to different channels overlap their bank
	// latencies, so a bandwidth-hungry independent-miss workload runs
	// at least as fast as on the ganged organization with the same
	// total pins.
	params := workload.Params{
		WorkingSet: 32 << 20, ResidentBytes: 64 << 10,
		MemFraction: 0.25, ChaseWeight: 0.8, DependentChase: false,
	}
	run := func(il string) Result {
		gen, err := workload.NewGenerator(params, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Base()
		cfg.Mapping = "xor"
		cfg.Interleaving = il
		cfg.MaxInstrs = 60_000
		cfg.WarmupInstrs = 120_000
		sys, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ganged := run("ganged")
	indep := run("independent")
	if indep.IPC < ganged.IPC*0.9 {
		t.Fatalf("independent channels much slower on parallel misses: %v vs %v",
			indep.IPC, ganged.IPC)
	}
}

func TestIndependentWithPrefetching(t *testing.T) {
	cfg := Tuned()
	cfg.Interleaving = "independent"
	res := runProfile(t, cfg, "swim", 60_000)
	if res.Prefetch.Issued == 0 {
		t.Fatal("no prefetches issued under independent interleaving")
	}
	// Prefetches must reach all four channel groups.
	if res.Channel.Accesses[2] == 0 {
		t.Fatal("no prefetch transfers recorded")
	}
}

func TestLocalAddressCompaction(t *testing.T) {
	cfg := Base()
	cfg.Interleaving = "independent"
	gen, _ := workload.NewGenerator(workload.Params{
		WorkingSet: 1 << 20, ResidentBytes: 64 << 10,
		MemFraction: 0.3, StreamWeight: 1, Streams: 1, ElemBytes: 8, Coverage: 1,
	}, 1, false)
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks stripe round-robin over the four groups and compact into
	// each group's private space.
	for i := uint64(0); i < 16; i++ {
		addr := i * 64
		g, local := sys.stripe(addr)
		if want := int(i % 4); g != want {
			t.Fatalf("stripe(%#x) group = %d, want %d", addr, g, want)
		}
		if want := i / 4 * 64; local != want {
			t.Fatalf("stripe(%#x) local = %#x, want %#x", addr, local, want)
		}
	}
}

// TestRoutedPrefetchesPopInOrder checks that a controller issues the
// prefetch candidates routed to it oldest first, and that popping them
// leaves the buffer's memory in place for the next route.
func TestRoutedPrefetchesPopInOrder(t *testing.T) {
	sys, _ := testSystem(t, func(c *Config) { c.Interleaving = "independent" })
	blocks := []uint64{12 * 64, 4 * 64, 8 * 64} // all stripe to group 0
	sys.pfBuf[0] = append(sys.pfBuf[0], blocks...)
	buf := sys.pfBuf[0]
	src := &prefetchSource{sys: sys, group: 0}
	for _, b := range blocks {
		r, ok := src.NextPrefetch(0)
		if _, local := sys.stripe(b); !ok || r.Addr != local {
			t.Fatalf("pulled %v (ok %v), want the prefetch of block %#x", r, ok, b)
		}
	}
	if sys.pfBuf[0] = append(sys.pfBuf[0], 16*64); &sys.pfBuf[0][0] != &buf[0] {
		t.Fatal("the next route reallocated the drained buffer")
	}
}
