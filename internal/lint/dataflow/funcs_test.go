package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"

	"memsim/internal/lint/analysis"
	"memsim/internal/lint/dataflow"
)

// checkPkg type-checks one import-free source file into an
// analysis.Package.
func checkPkg(t testing.TB, src string) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tpkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type check: %v", err)
	}
	return &analysis.Package{PkgPath: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

// TestModuleFuncs checks the index holds every declared function and
// method with a body, in source order, and nothing else: function
// literals belong to their enclosing declaration.
func TestModuleFuncs(t *testing.T) {
	pkg := checkPkg(t, benchSrc)
	var got []string
	for _, fn := range dataflow.ModuleFuncs(analysis.NewModule([]*analysis.Package{pkg})) {
		if fn.Decl.Body == nil || fn.Pkg != pkg || fn.Pkg.TypesInfo.Defs[fn.Decl.Name] != fn.Obj {
			t.Errorf("%s: index entry does not match its declaration", fn.Obj.Name())
		}
		got = append(got, fn.Obj.Name())
	}
	if want := []string{"work", "spawn", "apply"}; !slices.Equal(got, want) {
		t.Errorf("ModuleFuncs = %v, want %v", got, want)
	}
}

// indexed returns the index entries of src's package and a lookup
// from each entry's function object to its entry.
func indexed(t *testing.T, src string) (*analysis.Package, map[*types.Func]dataflow.Func) {
	t.Helper()
	pkg := checkPkg(t, src)
	byObj := make(map[*types.Func]dataflow.Func)
	for _, fn := range dataflow.ModuleFuncs(analysis.NewModule([]*analysis.Package{pkg})) {
		byObj[fn.Obj] = fn
	}
	return pkg, byObj
}

// selected returns the objects that the selector expressions naming
// sel resolve to, in source order.
func selected(pkg *analysis.Package, sel string) []types.Object {
	var objs []types.Object
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if se, ok := n.(*ast.SelectorExpr); ok && se.Sel.Name == sel {
				objs = append(objs, pkg.TypesInfo.Uses[se.Sel])
			}
			return true
		})
	}
	return objs
}

// TestMethodValue checks that method calls and method values, on
// value and pointer receivers, resolve to the function object the
// index holds for the method's declaration: errdrop and ctxflow key
// their module summaries by index entry and look callees up by that
// object. A stored method value adds no entry of its own.
func TestMethodValue(t *testing.T) {
	pkg, byObj := indexed(t, `package p
type T struct{}

func (t T) M()  {}
func (t *T) P() {}

func use(t T) {
	t.M()
	h := t.M
	h()
	t.P()
	g := t.P
	g()
}
`)
	if len(byObj) != 3 {
		t.Errorf("index holds %d functions, want 3 (M, P, use)", len(byObj))
	}
	for _, name := range []string{"M", "P"} {
		objs := selected(pkg, name)
		if len(objs) != 2 {
			t.Fatalf("found %d selectors of %s, want 2 (a call and a method value)", len(objs), name)
		}
		for _, obj := range objs {
			fn, ok := obj.(*types.Func)
			if !ok {
				t.Fatalf("t.%s resolves to %T, want *types.Func", name, obj)
			}
			if e, ok := byObj[fn]; !ok || e.Decl.Name.Name != name {
				t.Errorf("t.%s resolves to a function with no index entry", name)
			}
		}
	}
}

// TestInterfaceFanOut checks that an interface method call does not
// fan out to the implementations: each implementation has its own
// entry, the interface's method has none, and the call resolves to
// the interface's method. A summary therefore never attaches to an
// interface call.
func TestInterfaceFanOut(t *testing.T) {
	pkg, byObj := indexed(t, `package p
type I interface{ M() }

type T struct{}

func (T) M() {}

type U struct{}

func (*U) M() {}

func callIface(i I) { i.M() }
`)
	impls := 0
	for obj := range byObj {
		if obj.Name() == "M" {
			impls++
		}
	}
	if impls != 2 || len(byObj) != 3 {
		t.Errorf("index holds %d functions with %d M implementations, want 3 with 2 (T and *U)", len(byObj), impls)
	}
	objs := selected(pkg, "M")
	if len(objs) != 1 {
		t.Fatalf("found %d selectors of M, want 1", len(objs))
	}
	fn, ok := objs[0].(*types.Func)
	if !ok {
		t.Fatalf("i.M resolves to %T, want *types.Func", objs[0])
	}
	if _, ok := byObj[fn]; ok {
		t.Error("i.M resolves to an index entry: interface calls would inherit an implementation's summary")
	}
	if recv := fn.Type().(*types.Signature).Recv().Type(); !types.IsInterface(recv) {
		t.Errorf("i.M resolves to a method with receiver %v, want the interface I", recv)
	}
}
