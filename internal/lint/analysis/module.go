package analysis

import "fmt"

// Module is the whole-program view the interprocedural analyzers
// (errdrop, ctxflow) work against: every module package the driver
// loaded, plus a cache for facts that are expensive to build and
// shared across analyzers and packages — the module function index,
// function summaries.
type Module struct {
	Packages []*Package

	facts map[string]any
}

// NewModule wraps the loaded packages for a run.
func NewModule(pkgs []*Package) *Module {
	return &Module{Packages: pkgs, facts: make(map[string]any)}
}

// Fact returns the module-wide fact stored under key, building it
// through build on first use. Analyzers use it to share one function
// index (or one summary table) across the whole run instead of
// rebuilding it per package.
func (m *Module) Fact(key string, build func() (any, error)) (any, error) {
	if v, ok := m.facts[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	m.facts[key] = v
	return v, nil
}

// RunPackage applies each analyzer to one package of mod, applies
// //lint:ignore suppression, and returns the surviving diagnostics in
// source order. Malformed or reasonless directives surface as
// diagnostics of the built-in lintdirective analyzer, which callers
// include in the suite. When the suite includes it, RunPackage also
// audits the package's suppressions: a well-formed directive
// whose named analyzers all ran yet which suppressed nothing is stale
// and reported, so dead //lint:ignore comments cannot accumulate.
func RunPackage(mod *Module, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := collectDirectives(pkg)
	var diags []Diagnostic
	auditing := false
	for _, a := range analyzers {
		if a.Name == Lintdirective.Name {
			auditing = true
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Module:    mod,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if dirs.suppresses(pkg.Fset, d) {
				return
			}
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	if auditing {
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ran[a.Name] = true
		}
		// Two rounds: suppressing an audit finding is itself a use, so
		// first let candidate findings mark their suppressors used,
		// then recompute the stale set and filter for real.
		for _, d := range dirs.auditUnused(ran) {
			dirs.suppresses(pkg.Fset, d)
		}
		for _, d := range dirs.auditUnused(ran) {
			if !dirs.suppresses(pkg.Fset, d) {
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}
