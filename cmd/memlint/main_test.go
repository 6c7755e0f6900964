package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// repoRoot returns the module root, two levels above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

// TestDriver builds the real binary and runs the `memlint ./...`
// invocation that CI runs: the tree must be clean, since the suite
// gates merges.
func TestDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the driver over the module; skipped in -short")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "memlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/memlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building memlint: %v\n%s", err, out)
	}

	t.Run("standalone", func(t *testing.T) {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("memlint ./... reported findings or failed: %v\n%s", err, out)
		}
	})
}
