// Package analysistest runs one analyzer over fixture packages and
// checks its diagnostics against `// want` comments, the same contract
// as golang.org/x/tools/go/analysis/analysistest (reimplemented on the
// standard library; see internal/lint/analysis for why).
//
// Fixtures live under <testdata>/src/<pkgpath>/*.go. A fixture file
// marks each expected diagnostic with a trailing comment on the
// flagged line:
//
//	for k := range m { // want `iteration over map`
//
// The payload is one or more backquoted regular expressions; every
// diagnostic on the line must be matched by one of them, and every
// expectation must be consumed. Fixture packages may import each other
// by their path under src/ and may import the standard library, which
// is type-checked from source through the shared loader.
//
// Because diagnostics flow through the same runner as the real driver,
// //lint:ignore directives in fixtures suppress findings here too —
// which is how the suppression plumbing itself is tested.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"memsim/internal/lint/analysis"
	"memsim/internal/lint/loader"
)

// Run loads each fixture package and applies a, reporting mismatches
// through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	h := &harness{
		src:   filepath.Join(testdata, "src"),
		ld:    loader.New(testdata),
		fset:  token.NewFileSet(),
		fixed: make(map[string]*analysis.Package),
		extra: make(map[string]*types.Package),
	}
	pkgs := make([]*analysis.Package, 0, len(pkgPaths))
	for _, path := range pkgPaths {
		pkg, err := h.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	// Every loaded fixture package — the requested ones plus their
	// fixture imports — forms the Module, so interprocedural analyzers
	// summarize across packages exactly as the standalone driver would.
	mod := analysis.NewModule(h.modulePackages())
	for i, path := range pkgPaths {
		diags, err := analysis.RunPackage(mod, pkgs[i], []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, h.fset, pkgs[i], diags)
	}
}

type harness struct {
	src   string
	ld    *loader.Loader
	fset  *token.FileSet
	fixed map[string]*analysis.Package
	extra map[string]*types.Package
}

// modulePackages returns every loaded fixture package in path order.
func (h *harness) modulePackages() []*analysis.Package {
	paths := make([]string, 0, len(h.fixed))
	for p := range h.fixed {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	pkgs := make([]*analysis.Package, 0, len(paths))
	for _, p := range paths {
		pkgs = append(pkgs, h.fixed[p])
	}
	return pkgs
}

// load parses and type-checks one fixture package (and, recursively,
// any fixture packages it imports).
func (h *harness) load(path string) (*analysis.Package, error) {
	if pkg, ok := h.fixed[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(h.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(h.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", path, dir)
	}
	// Resolve fixture-local imports first so the type-checker finds
	// them in extra.
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if _, ok := h.extra[p]; ok {
				continue
			}
			if st, err := os.Stat(filepath.Join(h.src, p)); err == nil && st.IsDir() {
				if _, err := h.load(p); err != nil {
					return nil, err
				}
			}
		}
	}
	pkg, err := h.ld.CheckFiles(path, h.fset, files, h.extra)
	if err != nil {
		return nil, err
	}
	h.fixed[path] = pkg
	h.extra[path] = pkg.Types
	return pkg, nil
}

// wantRe extracts the payload of a want comment.
var wantRe = regexp.MustCompile("// want (.*)$")

// backquoted extracts each `...` chunk from a want payload.
var backquoted = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// checkWants matches diagnostics against the package's want comments.
func checkWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				chunks := backquoted.FindAllStringSubmatch(m[1], -1)
				if len(chunks) == 0 {
					t.Errorf("%s: want comment has no backquoted regexp", pos)
					continue
				}
				for _, ch := range chunks {
					re, err := regexp.Compile(ch[1])
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, ch[1], err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		idx := slices.IndexFunc(wants, func(w *expectation) bool {
			return !w.used && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message)
		})
		if idx < 0 {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, d.Analyzer)
			continue
		}
		wants[idx].used = true
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
