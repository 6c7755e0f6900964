package core

import (
	"testing"
)

func TestSequentialSchemeRuns(t *testing.T) {
	cfg := Base()
	cfg.Mapping = "xor"
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.Scheme = "sequential"
	cfg.Prefetch.Lookahead = 8
	res := runProfile(t, cfg, "swim", 60_000)
	if res.Prefetch.Issued == 0 {
		t.Fatal("sequential scheme issued no prefetches")
	}
}

func TestStreamSchemeHelpsStreaming(t *testing.T) {
	base := Base()
	base.Mapping = "xor"
	noPF := runProfile(t, base, "swim", 80_000)

	cfg := base
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.Scheme = "stream"
	cfg.Prefetch.Lookahead = 8
	withPF := runProfile(t, cfg, "swim", 80_000)

	if withPF.Prefetch.Issued == 0 {
		t.Fatal("stream scheme issued no prefetches")
	}
	if withPF.IPC < noPF.IPC {
		t.Fatalf("stream prefetching slowed swim: %v -> %v", noPF.IPC, withPF.IPC)
	}
}

func TestSchemeValidation(t *testing.T) {
	cfg := Base()
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.Scheme = "oracle"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
	cfg.Prefetch.Scheme = "sequential"
	cfg.Prefetch.Lookahead = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero lookahead accepted")
	}
}

func TestReorderWindowImprovesRowHits(t *testing.T) {
	// Under bandwidth pressure with queued demands, open-row-first
	// issue must raise the demand row-hit rate and not slow things
	// down.
	base := Base()
	base.Mapping = "xor"
	inorder := runProfile(t, base, "mcf", 60_000)

	re := base
	re.SchedPolicy, re.ReorderWindow = "frfcfs-cap", 8
	reordered := runProfile(t, re, "mcf", 60_000)

	if reordered.Ctrl.Reordered == 0 {
		t.Fatal("reordering never engaged on a saturated workload")
	}
	if reordered.RowHitRate(0) < inorder.RowHitRate(0) {
		t.Fatalf("reordering lowered demand row-hit rate: %v -> %v",
			inorder.RowHitRate(0), reordered.RowHitRate(0))
	}
	if reordered.IPC < inorder.IPC*0.98 {
		t.Fatalf("reordering slowed mcf: %v -> %v", inorder.IPC, reordered.IPC)
	}
}

func TestRefreshCostsALittle(t *testing.T) {
	base := Base()
	base.Mapping = "xor"
	off := runProfile(t, base, "swim", 60_000)

	on := base
	on.Refresh = true
	with := runProfile(t, on, "swim", 60_000)

	if with.Channel.Refreshes == 0 {
		t.Fatal("refresh enabled but none injected")
	}
	if with.IPC > off.IPC {
		t.Fatalf("refresh sped things up: %v -> %v", off.IPC, with.IPC)
	}
	if with.IPC < off.IPC*0.90 {
		t.Fatalf("refresh cost over 10%%: %v -> %v; should be second-order", off.IPC, with.IPC)
	}
}

func TestPrefetchBufferMode(t *testing.T) {
	cfg := Base()
	cfg.Mapping = "xor"
	cfg.Prefetch = TunedPrefetch()
	cfg.Prefetch.BufferBlocks = 32
	res := runProfile(t, cfg, "swim", 80_000)
	if res.Buffer.PrefetchFills == 0 {
		t.Fatal("buffer mode installed no prefetches in the buffer")
	}
	if res.Buffer.Accesses == 0 {
		t.Fatal("demand misses never probed the buffer")
	}
	// The streaming workload must hit the buffer often.
	hits := res.Buffer.Accesses - res.Buffer.Misses
	if hits == 0 {
		t.Fatal("no buffer hits on a streaming workload")
	}
	// Prefetched blocks must not land in the L2 directly.
	if res.L2.PrefetchFills != 0 {
		t.Fatalf("L2 received %d prefetch fills in buffer mode", res.L2.PrefetchFills)
	}
}

func TestPrefetchBufferVsInsertion(t *testing.T) {
	// Both pollution controls must keep a low-accuracy workload near
	// its no-prefetch performance.
	base := Base()
	base.Mapping = "xor"
	noPF := runProfile(t, base, "vpr", 60_000)

	lru := base
	lru.Prefetch = TunedPrefetch()
	lruRes := runProfile(t, lru, "vpr", 60_000)

	buf := base
	buf.Prefetch = TunedPrefetch()
	buf.Prefetch.BufferBlocks = 32
	bufRes := runProfile(t, buf, "vpr", 60_000)

	for name, res := range map[string]Result{"lru": lruRes, "buffer": bufRes} {
		if res.IPC < noPF.IPC*0.90 {
			t.Errorf("%s pollution control lost over 10%%: %v vs %v", name, res.IPC, noPF.IPC)
		}
	}
}
