package cluster

import (
	"context"
	"fmt"
	"testing"

	"memsim/internal/sim"
)

// recordLog runs cfg to completion, as Run does, and returns its fire
// log (every message the barrier exchanged, in merge order) with the
// finished run.
func recordLog(tb testing.TB, cfg Config) ([]message, *run) {
	tb.Helper()
	r, err := newRun(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var log []message
	r.tap = func(m *message) { log = append(log, *m) }
	if r.cfg.Parallel {
		err = r.runParallel(context.Background())
	} else {
		err = r.runSequential(context.Background())
	}
	if err != nil {
		tb.Fatal(err)
	}
	return log, r
}

// foldFrom folds log into the fire-log digest h with the barrier's own
// step.
func foldFrom(h uint64, log []message) uint64 {
	r := &run{hash: h}
	for i := range log {
		r.hashMessage(&log[i])
	}
	return r.hash
}

// fireLogWords is m's fire-log form: the six fixed words hashMessage
// combines, Slot left out.
func fireLogWords(m *message) [6]uint64 {
	flags := uint64(0)
	if m.Write {
		flags = 1
	}
	if m.NeedFirst {
		flags |= 2
	}
	return [...]uint64{
		uint64(m.DeliverAt),
		uint64(m.Src)<<32 | uint64(m.Kind)<<16 | uint64(m.Sys),
		m.Seq,
		m.ID,
		m.Addr,
		uint64(m.Size)<<8 | uint64(m.Class)<<2 | flags,
	}
}

// fnv1aFireLog is the byte-wise reference digest: 64-bit FNV-1a over
// each message's six words, byte by byte, least significant first.
// The cluster goldens' trace_hash values were first recorded with it,
// so reproducing them shows the exchanged log is the one they
// witnessed.
func fnv1aFireLog(log []message) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := range log {
		for _, w := range fireLogWords(&log[i]) {
			for b := 0; b < 64; b += 8 {
				h = (h ^ w>>b&0xff) * prime
			}
		}
	}
	return h
}

// TestFireLogByteReference runs both golden configs on both engines and
// checks that the byte-wise reference digest of the exchanged log still
// reproduces the trace_hash each golden held when it was recorded with
// that digest, and that the run's own digest folds exactly the log the
// tap saw.
func TestFireLogByteReference(t *testing.T) {
	for _, tc := range []struct {
		golden string
		cfg    Config
		fnv    uint64
	}{
		{"golden_cluster.json", testConfig(), 0x9ee47810a6c87a8e},
		{"golden_cluster_prefetch.json", tunedPrefetchConfig(), 0xed0adf1481f4134b},
	} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", tc.golden, parallel), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Parallel = parallel
				log, r := recordLog(t, cfg)
				if uint64(len(log)) != r.messages {
					t.Fatalf("tap saw %d messages, run counted %d", len(log), r.messages)
				}
				if got := fnv1aFireLog(log); got != tc.fnv {
					t.Errorf("byte-wise digest %016x, want %016x", got, tc.fnv)
				}
				if got := foldFrom(digestSeed, log); got != r.hash {
					t.Errorf("log folds to %016x, run digest %016x", got, r.hash)
				}
			})
		}
	}
}

// hashedFields lists every field the digest covers, each with its
// width in bits and a way to flip one of them.
var hashedFields = []struct {
	name string
	bits int
	flip func(m *message, b int)
}{
	{"DeliverAt", 64, func(m *message, b int) { m.DeliverAt ^= sim.Time(1) << b }},
	{"Seq", 64, func(m *message, b int) { m.Seq ^= 1 << b }},
	{"ID", 64, func(m *message, b int) { m.ID ^= 1 << b }},
	{"Addr", 64, func(m *message, b int) { m.Addr ^= 1 << b }},
	{"Size", 32, func(m *message, b int) { m.Size ^= 1 << b }},
	{"Src", 16, func(m *message, b int) { m.Src ^= 1 << b }},
	{"Sys", 16, func(m *message, b int) { m.Sys ^= 1 << b }},
	{"Kind", 8, func(m *message, b int) { m.Kind ^= 1 << b }},
	{"Class", 8, func(m *message, b int) { m.Class ^= 1 << b }},
	{"Write", 1, func(m *message, _ int) { m.Write = !m.Write }},
	{"NeedFirst", 1, func(m *message, _ int) { m.NeedFirst = !m.NeedFirst }},
}

// TestFireLogDigestProperties checks the digest on a recorded log:
// flipping any one bit of any hashed field of a message changes it,
// swapping two adjacent messages changes it, and Slot, which is
// routing rather than protocol, does not enter it.
func TestFireLogDigestProperties(t *testing.T) {
	log, r := recordLog(t, testConfig())
	want := r.hash
	n := len(log)
	// prefix[i] is the digest before log[i], so a log that differs
	// from log[i] on folds exactly from there.
	prefix := make([]uint64, n+1)
	prefix[0] = digestSeed
	for i := range log {
		prefix[i+1] = foldFrom(prefix[i], log[i:i+1])
	}
	if prefix[n] != want {
		t.Fatalf("log folds to %016x, run digest %016x", prefix[n], want)
	}
	foldAt := func(i int, head ...message) uint64 {
		return foldFrom(foldFrom(prefix[i], head), log[i+len(head):])
	}

	const samples = 16
	for k := 0; k < samples; k++ {
		i := k * (n - 1) / (samples - 1)
		for _, f := range hashedFields {
			for b := 0; b < f.bits; b++ {
				m := log[i]
				f.flip(&m, b)
				if foldAt(i, m) == want {
					t.Errorf("message %d: flipping %s bit %d leaves the digest at %016x", i, f.name, b, want)
				}
			}
		}
		m := log[i]
		m.Slot ^= 0x5a5a5a5a
		if got := foldAt(i, m); got != want {
			t.Errorf("message %d: changing Slot moved the digest %016x -> %016x", i, want, got)
		}
	}

	swapped := 0
	for i := 0; i+1 < n; i += 7 {
		a, b := log[i], log[i+1]
		if fireLogWords(&a) == fireLogWords(&b) {
			continue
		}
		swapped++
		if foldAt(i, b, a) == want {
			t.Errorf("swapping messages %d and %d leaves the digest at %016x", i, i+1, want)
		}
	}
	if swapped < n/16 {
		t.Fatalf("only %d of %d sampled adjacent pairs differ", swapped, (n+6)/7)
	}
}
