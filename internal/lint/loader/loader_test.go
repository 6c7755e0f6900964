package loader_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memsim/internal/lint/loader"
)

// TestLoadModulePackage type-checks a real simulator package from
// source, including its standard-library imports, and verifies the
// loader produces usable syntax and type information.
func TestLoadModulePackage(t *testing.T) {
	ld := loader.New(".")
	pkgs, err := ld.Load("memsim/internal/sim")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.PkgPath != "memsim/internal/sim" {
		t.Errorf("PkgPath = %q", pkg.PkgPath)
	}
	if pkg.Types == nil || pkg.Types.Name() != "sim" {
		t.Fatalf("package not type-checked: %v", pkg.Types)
	}
	if len(pkg.Files) == 0 {
		t.Error("no syntax files")
	}
	if pkg.TypesInfo == nil || len(pkg.TypesInfo.Defs) == 0 {
		t.Error("no type information recorded")
	}
	if sched := pkg.Types.Scope().Lookup("Scheduler"); sched == nil {
		t.Error("Scheduler not found in package scope")
	}
}

// TestExcludesTestFiles pins the module function index's blindness to
// test code: go list's GoFiles omits _test.go, so test-only functions
// never enter the index and never feed errdrop's or ctxflow's
// summaries.
func TestExcludesTestFiles(t *testing.T) {
	ld := loader.New(".")
	pkgs, err := ld.Load("memsim/internal/sim")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkg := pkgs[0]
	if len(pkg.Files) == 0 {
		t.Fatal("no syntax files")
	}
	dir := ""
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file loaded: %s", name)
		}
		dir = filepath.Dir(name)
	}
	// The exclusion only proves something if the directory really has
	// test files to exclude.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	hasTests := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), "_test.go") {
			hasTests = true
		}
	}
	if !hasTests {
		t.Fatalf("%s has no _test.go files; pick a package that does", dir)
	}
}

// TestLoadPattern loads the whole module wildcard and checks the
// driver's own package shows up, proving pattern expansion works the
// way cmd/memlint invokes it.
func TestLoadPattern(t *testing.T) {
	ld := loader.New(".")
	pkgs, err := ld.Load("memsim/internal/lint/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	found := false
	for _, p := range pkgs {
		if p.PkgPath == "memsim/internal/lint/analysis" {
			found = true
		}
	}
	if !found {
		t.Errorf("memsim/internal/lint/analysis missing from %d loaded packages", len(pkgs))
	}
}
