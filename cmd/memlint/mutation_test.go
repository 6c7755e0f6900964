package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededMutations proves that every analyzer in the suite earns
// its place. It copies the module, applies one realistic edit to
// production code per analyzer, builds memlint from the mutated tree,
// and requires the run to report each edit under its analyzer. Every
// edit here passes the rest of the test suite and CI's smoke and
// determinism steps, so memlint is the only check that catches it.
// An analyzer without such an edit does not belong in the suite.
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

	// ctxflow: run a spec under a fresh context, which drops the
	// per-run deadline and batch cancellation. Results are unchanged,
	// so only a timed-out or canceled batch would show it.
	mutate(t, filepath.Join(tmp, "internal/experiments/runner.go"),
		`res, err = sys.RunContext(ctx)`,
		`res, err = sys.RunContext(context.Background())`)

	// simdeterminism: print obsdump's per-kind counts in map order.
	// No test pins the order of that line.
	mutate(t, filepath.Join(tmp, "cmd/obsdump/main.go"),
		`	sort.Strings(keys)
	fmt.Fprintf(w, "%-14s", label)`,
		`	fmt.Fprintf(w, "%-14s", label)`)

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
		{"internal/experiments/runner.go", "(ctxflow)"},
		{"cmd/obsdump/main.go", "(simdeterminism)"},
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
// state and test fixtures, which go list never loads. Nested modules
// keep their go.mod, so ./... in the copy matches ./... in the tree.
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
		if !strings.HasSuffix(rel, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
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
