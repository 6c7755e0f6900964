// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, shaped so analyzers written against
// it port to the upstream API mechanically. The module has no external
// dependencies (and the build environment has no module proxy), so the
// framework is built entirely on the standard library's go/ast,
// go/types and go/token.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics. The memlint suite (see internal/lint/analyzers/...)
// uses it to enforce simulator-specific invariants — determinism,
// time units, error propagation, stats wiring — that go vet cannot
// express.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, then
	// prose describing the invariant it enforces and how to silence a
	// false positive.
	Doc string

	// Run applies the analyzer to one package. It reports findings
	// through pass.Report and returns an error only for internal
	// failures (a nil error with diagnostics is the normal "found
	// problems" outcome, matching x/tools semantics).
	Run func(pass *Pass) (any, error)
}

// Pass provides one analyzer run with a single type-checked package
// and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the whole-program view for interprocedural analyzers.
	// It always holds at least the package under analysis; the drivers
	// (cmd/memlint, the fixture harness) populate it with every loaded
	// package so function summaries can cross package boundaries.
	Module *Module

	// Report delivers one diagnostic. The runner installs a wrapper
	// that applies //lint:ignore suppression before recording.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, attached to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is filled in by the runner so multichecker output can
	// attribute each finding.
	Analyzer string
}

// Package is an analyzable unit: a parsed, type-checked package. The
// loader (internal/lint/loader) and the fixture harness
// (internal/lint/analysistest) both produce this shape.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// sortDiagnostics orders diagnostics by file position, then analyzer
// name, so multichecker output is deterministic regardless of analyzer
// registration order.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort: diagnostic lists are short and mostly ordered.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diagLess(fset, diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func diagLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Offset != pb.Offset {
		return pa.Offset < pb.Offset
	}
	return a.Analyzer < b.Analyzer
}
