package simdeterminism

import (
	"testing"

	"memsim/internal/lint/analysistest"
)

// TestFixtures covers the flagged shapes (unsorted map range, collected
// but unsorted keys, float accumulation, time.Now, global rand,
// goroutines), the clean shapes (the canonical harden.go
// collect-then-slices.Sort pattern, guarded collection, integer
// accumulation, map clear, seeded rand), and //lint:ignore suppression
// in both placements.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "a/internal/core", "a/internal/cpu", "b/report")
}

func TestInSimCore(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"memsim/internal/sim", true},
		{"memsim/internal/core", true},
		{"memsim/internal/memctrl", true},
		{"memsim/internal/channel", true},
		{"memsim/internal/prefetch", true},
		{"memsim/internal/cache", true},
		{"memsim/internal/policy", true},
		{"memsim/internal/dram", true},
		{"memsim/internal/cpu", true},
		{"memsim/internal/addrmap", true},
		{"memsim/internal/workload", true},
		{"memsim/internal/trace", true},
		{"memsim/internal/stats", true},
		{"memsim/internal/experiments", false},
		{"memsim/internal/harden", false},
		{"memsim/cmd/memsim", false},
		{"a/internal/core", true},
		{"internal/core", true}, // module-less fixture paths still gate
	}
	for _, c := range cases {
		if got := inSimCore(c.path); got != c.want {
			t.Errorf("inSimCore(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
