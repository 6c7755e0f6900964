package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededMutations proves the CI lint gate has teeth: it copies the
// module, reintroduces one known violation per interprocedural rule —
// a discarded drain error in cmd/memsimd that only errdrop's wrapper
// rule sees (the shape it first caught in cmd/sweep's checkpoint
// save), a scheduler deadline subtracted from Now() in the memory
// controller, plus seeded atomiccross/ctxflow/unitflow violations
// modelled on the invariants the suite pins — builds memlint from the
// mutated tree, and requires the run to report each one under its
// analyzer.
func TestSeededMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-analyzes the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	// errdrop: discard the daemon's drain error, losing the final job
	// store flush. Service.Drain returns Store.Save's error, which
	// returns the vfs write's, so only the inherited must-check set
	// catches it.
	mutate(t, filepath.Join(tmp, "cmd/memsimd/main.go"),
		`if err := svc.Drain(ctx); err != nil {
		logger.Printf("drain degraded: %v", err)
		return exitDegraded
	}`,
		`svc.Drain(ctx)`)

	// unitflow: a decision deadline that subtracts from Now() lands in
	// the past and is clamped to the present.
	mutate(t, filepath.Join(tmp, "internal/memctrl/memctrl.go"),
		`c.sched.AtCall(c.gate, fireDecide, c)`,
		`c.sched.AtCall(c.sched.Now()-c.gate, fireDecide, c)`)

	// atomiccross, ctxflow, unitflow: one violation each, seeded into
	// a server-side file so the package is goroutine-bearing.
	if err := os.WriteFile(filepath.Join(tmp, "internal/server/zz_mutant.go"), []byte(`package server

import (
	"context"
	"time"

	"memsim/internal/sim"
)

type mutantStats struct{ hits int }

var mutantShared mutantStats

func mutantSpawn() {
	go func() { mutantShared.hits++ }()
}

func mutantStep(ctx context.Context) error { return ctx.Err() }

func mutantDrop(ctx context.Context) {
	_ = mutantStep(context.Background())
}

type mutantCfg struct{ deadline sim.Time }

func mutantUnits(d time.Duration) mutantCfg {
	var c mutantCfg
	c.deadline = sim.Time(d.Nanoseconds())
	return c
}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(tmp, "memlint-mutated")
	build := exec.Command("go", "build", "-o", bin, "./cmd/memlint")
	build.Dir = tmp
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building memlint from mutated tree: %v\n%s", err, out)
	}

	lint := exec.Command(bin, "./...")
	lint.Dir = tmp
	out, err := lint.CombinedOutput()
	if err == nil {
		t.Fatalf("memlint passed a tree with seeded violations:\n%s", out)
	}
	for _, want := range []struct{ file, analyzer string }{
		{"cmd/memsimd/main.go", "(errdrop)"},
		{"internal/memctrl/memctrl.go", "(unitflow)"},
		{"internal/server/zz_mutant.go", "(atomiccross)"},
		{"internal/server/zz_mutant.go", "(ctxflow)"},
		{"internal/server/zz_mutant.go", "(unitflow)"},
	} {
		if !reported(string(out), want.file, want.analyzer) {
			t.Errorf("seeded %s violation in %s not reported; output:\n%s", want.analyzer, want.file, out)
		}
	}
}

// reported reports whether some output line names both file and
// analyzer.
func reported(out, file, analyzer string) bool {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, file) && strings.HasSuffix(line, analyzer) {
			return true
		}
	}
	return false
}

// mutate applies one exact-match replacement, failing loudly if the
// anchor text has drifted so the mutation silently stopped mutating.
func mutate(t *testing.T, path, anchor, repl string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), anchor) {
		t.Fatalf("%s no longer contains the mutation anchor:\n%s", path, anchor)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(b), anchor, repl, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyModule copies the Go sources and module metadata, skipping VCS
// state and test fixtures, which go list never loads.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" && rel != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
