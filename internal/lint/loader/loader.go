// Package loader turns Go package patterns into type-checked
// analysis.Packages using only the standard library. It shells out to
// `go list -deps -json` for build-system truth (which files belong to
// a package on this platform, how imports resolve) and type-checks
// everything — including standard-library dependencies — from source.
//
// This is the piece golang.org/x/tools/go/packages normally provides;
// the build environment has no module proxy, so the suite carries its
// own. The loader is deliberately sequential and cache-backed: the
// whole repository plus its stdlib closure type-checks in a few
// seconds, and determinism of output order matters more than speed.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"memsim/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output we consume.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Imports    []string
	Error      *struct{ Err string }
}

// Loader loads and type-checks packages, caching type information
// across calls so stdlib dependencies are checked once.
type Loader struct {
	Dir  string // working directory for go list (module root or below)
	fset *token.FileSet
	meta map[string]*listPackage   // import path -> metadata
	pkgs map[string]*types.Package // import path -> checked package
}

// New returns a Loader rooted at dir.
func New(dir string) *Loader {
	return &Loader{
		Dir:  dir,
		fset: token.NewFileSet(),
		meta: make(map[string]*listPackage),
		pkgs: make(map[string]*types.Package),
	}
}

// Fset exposes the position information for everything the loader has
// parsed.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load resolves patterns (e.g. "./...") to fully type-checked
// analysis.Packages, in deterministic (go list) order. Dependencies are
// type-checked but only the packages matching the patterns are
// returned for analysis.
func (l *Loader) Load(patterns ...string) ([]*analysis.Package, error) {
	metas, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Package
	for _, m := range metas {
		if m.DepOnly {
			continue
		}
		pkg, err := l.check(m.ImportPath, true)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Import implements types.Importer on top of the metadata cache,
// type-checking dependencies on demand. It makes the loader usable as
// the stdlib importer for fixture packages (see internal/lint/analysistest).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	m := l.lookup(path)
	if m == nil {
		// A path we have no metadata for yet: list it (with its deps)
		// and retry. This is the lazy path fixtures take for stdlib
		// imports that the analyzed module itself never uses.
		if _, err := l.list([]string{path}); err != nil {
			return nil, err
		}
		if m = l.lookup(path); m == nil {
			return nil, fmt.Errorf("loader: cannot resolve import %q", path)
		}
	}
	pkg, err := l.check(m.ImportPath, false)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// lookup resolves an import path against the metadata map, following
// the standard library's vendoring convention (an import of
// golang.org/x/... from inside std resolves to vendor/golang.org/...).
func (l *Loader) lookup(path string) *listPackage {
	if m, ok := l.meta[path]; ok {
		return m
	}
	if m, ok := l.meta["vendor/"+path]; ok {
		return m
	}
	return nil
}

// list runs `go list -deps -json` for patterns and merges the results
// into the metadata cache, returning the packages the patterns matched
// (plus deps), in go list's dependency order.
func (l *Loader) list(patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	// CGO off so build-tag selection picks the pure-Go files we can
	// type-check from source; the simulator has no cgo anywhere.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var out []*listPackage
	for {
		var m listPackage
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		if m.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", m.ImportPath, m.Error.Err)
		}
		if existing, ok := l.meta[m.ImportPath]; ok {
			out = append(out, existing)
			continue
		}
		mm := m
		l.meta[m.ImportPath] = &mm
		out = append(out, &mm)
	}
	return out, nil
}

// check parses and type-checks one package by import path, resolving
// its imports recursively through the cache. When full is true the
// syntax and types.Info are retained for analysis; dependencies keep
// only their *types.Package.
func (l *Loader) check(path string, full bool) (*analysis.Package, error) {
	m := l.meta[path]
	if m == nil {
		return nil, fmt.Errorf("loader: no metadata for %q", path)
	}
	if !full {
		if p, ok := l.pkgs[path]; ok {
			return &analysis.Package{PkgPath: path, Types: p}, nil
		}
	}
	if path == "unsafe" {
		l.pkgs[path] = types.Unsafe
		return &analysis.Package{PkgPath: path, Types: types.Unsafe}, nil
	}

	files := make([]*ast.File, 0, len(m.GoFiles))
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(m.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}

	info := newInfo()
	cfg := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		// Standard-library internals occasionally produce benign
		// type-check complaints when read from source outside the
		// build (e.g. linkname'd declarations). Tolerate errors in
		// dependencies; the analyzed packages themselves must be
		// clean, enforced below.
		Error: func(error) {},
	}
	var firstErr error
	if full {
		cfg.Error = func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if full {
		if firstErr != nil {
			return nil, fmt.Errorf("loader: type error in %s: %w", path, firstErr)
		}
		if err != nil {
			return nil, fmt.Errorf("loader: %s: %w", path, err)
		}
	}
	if tpkg == nil {
		return nil, fmt.Errorf("loader: type-checking %s produced no package", path)
	}
	l.pkgs[path] = tpkg
	return &analysis.Package{
		PkgPath:   path,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// CheckFiles type-checks an already-parsed package (the fixture path
// used by analysistest): files were parsed into fset by the caller,
// imports resolve first through extra, then through the loader's own
// cache.
func (l *Loader) CheckFiles(pkgPath string, fset *token.FileSet, files []*ast.File, extra map[string]*types.Package) (*analysis.Package, error) {
	info := newInfo()
	cfg := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := extra[path]; ok {
				return p, nil
			}
			return l.Import(path)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := cfg.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: fixture %s: %w", pkgPath, err)
	}
	return &analysis.Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// newInfo returns a types.Info recording everything the analyzers
// read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
