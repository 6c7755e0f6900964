package core

import (
	"testing"

	"memsim/internal/addrmap"
	"memsim/internal/sim"
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

// TestLocalAddressCompaction pins Memory.route for every requester. A
// private system's only requester, 0, stripes its blocks round-robin
// over the four groups and compacts them into each group's private
// space. Requester i of a four-requester memory of the cluster fabric's
// shape (independent channels, 64 B granule) first moves i*1009
// granules up the shared space, wrapping at capacity.
func TestLocalAddressCompaction(t *testing.T) {
	cfg := Base()
	cfg.Interleaving = "independent"
	cfg.L2Block = 128
	gen, _ := workload.NewGenerator(workload.Params{
		WorkingSet: 1 << 20, ResidentBytes: 64 << 10,
		MemFraction: 0.3, StreamWeight: 1, Streams: 1, ElemBytes: 8, Coverage: 1,
	}, 1, false)
	sys, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		addr := i*128 + 8
		g, local := sys.mem.route(0, addr)
		if want := int(i % 4); g != want {
			t.Fatalf("route(0, %#x) group = %d, want %d", addr, g, want)
		}
		if want := i/4*128 + 8; local != want {
			t.Fatalf("route(0, %#x) local = %#x, want %#x", addr, local, want)
		}
	}

	fabric := Base()
	fabric.Interleaving = "independent"
	mem, err := NewMemory(sim.NewScheduler(), fabric, 4)
	if err != nil {
		t.Fatal(err)
	}
	capacity := fabric.geometry().Capacity()
	// The last address wraps for every requester above 0.
	addrs := []uint64{0, 64, 3*64 + 5, 1 << 20, capacity - 1009*64 + 7, capacity - 64}
	for sys := 0; sys < 4; sys++ {
		for _, addr := range addrs {
			g, local := mem.route(sys, addr)
			wantG, wantLocal := addrmap.Stripe(addr, uint64(fabric.L2Block), 4)
			if sys > 0 {
				wantG, wantLocal = addrmap.Stripe((addr+uint64(sys)*1009*64)%capacity, 64, 4)
			}
			if g != wantG || local != wantLocal {
				t.Errorf("route(%d, %#x) = (%d, %#x), want (%d, %#x)", sys, addr, g, local, wantG, wantLocal)
			}
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
		if _, local := sys.mem.route(0, b); !ok || r.Addr != local {
			t.Fatalf("pulled %v (ok %v), want the prefetch of block %#x", r, ok, b)
		}
	}
	if sys.pfBuf[0] = append(sys.pfBuf[0], 16*64); &sys.pfBuf[0][0] != &buf[0] {
		t.Fatal("the next route reallocated the drained buffer")
	}
}
