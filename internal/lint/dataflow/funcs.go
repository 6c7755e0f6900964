package dataflow

import (
	"go/ast"
	"go/types"

	"memsim/internal/lint/analysis"
)

// Func is one declared module function or method with a body: the
// unit the interprocedural analyzers summarize.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package
}

// ModuleFuncs returns every declared function with a body, in the
// loader's package order and then source order, so fixpoints over it
// are deterministic. It is built once per Module and shared through
// the module fact cache. _test.go files never appear: the loader's go
// list GoFiles excludes them.
func ModuleFuncs(m *analysis.Module) []Func {
	v, _ := m.Fact("dataflow.funcs", func() (any, error) {
		var fns []Func
		for _, pkg := range m.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						fns = append(fns, Func{Obj: obj, Decl: fd, Pkg: pkg})
					}
				}
			}
		}
		return fns, nil
	})
	return v.([]Func)
}
