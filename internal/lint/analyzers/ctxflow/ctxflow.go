// Package ctxflow checks that a context.Context in scope actually
// flows into the Context-accepting calls made under it. The memsimd
// service threads cancellation from HTTP request through orchestrator
// to simulation step; a handler or worker that passes
// context.Background() (or context.TODO(), or a chain derived from
// one) to a callee silently disconnects that callee from cancellation
// — jobs keep simulating after the client is gone, experiment retries
// outlive their deadline.
//
// The analysis is a forward dataflow over each function's CFG
// (internal/lint/dataflow). Context-typed values are either DERIVED
// (traceable to a parameter, struct field, or request) or FRESH
// (traceable only to Background/TODO). context.With* transfers the
// taint of its parent argument; a module function returning a Context
// is a FRESH source only when every return path is FRESH, so a helper
// like `func (r *Runner) ctx() context.Context` that prefers a
// configured context and falls back to Background stays DERIVED. A
// diagnostic fires when a function that has a Context parameter in
// scope (its own, or a lexically enclosing one for closures) passes a
// value that is FRESH on all paths to a Context-accepting call.
// Deliberately detached work is silenced with
// //lint:ignore ctxflow <reason>.
package ctxflow

import (
	"go/ast"
	"go/types"

	"memsim/internal/lint/analysis"
	"memsim/internal/lint/dataflow"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flag fresh Background/TODO contexts passed to callees while a ctx parameter is in scope\n\n" +
		"Passing context.Background() where a received ctx could flow disconnects the callee " +
		"from cancellation. Derive from the in-scope ctx, or silence deliberate detachment with " +
		"//lint:ignore ctxflow <reason>.",
	Run: run,
}

// Taint values. DERIVED is also the default for anything not provably
// fresh, so the analysis only speaks up when the evidence is complete.
const (
	derived uint8 = 1
	fresh   uint8 = 2
)

func run(pass *analysis.Pass) (any, error) {
	sums, err := moduleSummaries(pass.Module)
	if err != nil {
		return nil, err
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, sums, fd.Body, hasCtxParam(pass.TypesInfo, fd.Type))
		}
	}
	return nil, nil
}

// checkFunc analyzes one function body, then recurses into nested
// literals, which inherit "a ctx is in scope" from any ancestor.
func checkFunc(pass *analysis.Pass, sums summaries, body *ast.BlockStmt, inScope bool) {
	if inScope {
		reportFresh(pass, sums, body)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		checkFunc(pass, sums, lit.Body, inScope || hasCtxParam(pass.TypesInfo, lit.Type))
		return false
	})
}

// reportFresh runs the taint analysis over body and reports every
// Context argument that is fresh on all paths.
func reportFresh(pass *analysis.Pass, sums summaries, body *ast.BlockStmt) {
	info := pass.TypesInfo
	cfg := dataflow.New(body)
	fl := ctxFlow(info, sums)
	facts := cfg.Forward(dataflow.Fact(&dataflow.Env{}), fl)
	cfg.Visit(facts, fl, func(n ast.Node, before dataflow.Fact) {
		env := before.(*dataflow.Env)
		scanCalls(n, func(call *ast.CallExpr) {
			if isCtxConstructor(info, call) != "" {
				// The WithX/Background call itself; its parent
				// argument is judged where the result is used.
				return
			}
			for _, arg := range call.Args {
				if !isContextType(info.TypeOf(arg)) {
					continue
				}
				if exprCtx(info, sums, env, arg) == fresh {
					pass.Reportf(arg.Pos(),
						"fresh context (Background/TODO) passed to %s while a ctx is in scope; derive from it or //lint:ignore ctxflow with the reason for detaching",
						calleeName(info, call))
				}
			}
		})
	})
}

// ctxFlow is the lattice: join keeps FRESH only when both paths agree,
// so a branch that restores a derived context clears the report.
func ctxFlow(info *types.Info, sums summaries) dataflow.Flow {
	return dataflow.Flow{
		Join: func(a, b dataflow.Fact) dataflow.Fact {
			// Freshness must hold on every path, and a path that never
			// assigned the variable left it derived — so one-sided
			// bindings join against derived, not survive as-is.
			return dataflow.Fact(dataflow.JoinDefault(a.(*dataflow.Env), b.(*dataflow.Env), derived, func(x, y uint8) uint8 {
				if x == y {
					return x
				}
				return derived
			}))
		},
		Equal: func(a, b dataflow.Fact) bool {
			return a.(*dataflow.Env).Equal(b.(*dataflow.Env))
		},
		Transfer: func(n ast.Node, in dataflow.Fact) dataflow.Fact {
			env := in.(*dataflow.Env)
			switch n := n.(type) {
			case *ast.AssignStmt:
				return dataflow.Fact(ctxAssign(info, sums, env, n.Lhs, n.Rhs))
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok {
					return in
				}
				out := env
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) == 0 {
						continue
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					out = ctxAssign(info, sums, out, lhs, vs.Values)
				}
				return dataflow.Fact(out)
			}
			return in
		},
	}
}

// ctxAssign applies one assignment to the taint environment; only
// Context-typed targets are tracked.
func ctxAssign(info *types.Info, sums summaries, env *dataflow.Env, lhs, rhs []ast.Expr) *dataflow.Env {
	out := env.Clone()
	if len(rhs) == 1 && len(lhs) > 1 {
		// ctx, cancel := context.WithCancel(parent): the Context
		// targets take the call's taint.
		v := derived
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			v = callCtx(info, sums, env, call)
		}
		for _, l := range lhs {
			if obj := ctxAssignee(info, l); obj != nil {
				out.Set(obj, v)
			}
		}
		return out
	}
	for i, l := range lhs {
		obj := ctxAssignee(info, l)
		if obj == nil || i >= len(rhs) {
			continue
		}
		out.Set(obj, exprCtx(info, sums, env, rhs[i]))
	}
	return out
}

// ctxAssignee resolves a Context-typed assignment target variable.
func ctxAssignee(info *types.Info, l ast.Expr) types.Object {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := info.ObjectOf(id)
	if obj == nil || !isContextType(obj.Type()) {
		return nil
	}
	return obj
}

// exprCtx evaluates the taint of a Context-valued expression.
func exprCtx(info *types.Info, sums summaries, env *dataflow.Env, e ast.Expr) uint8 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			if v, ok := env.Get(obj); ok {
				return v
			}
		}
		return derived
	case *ast.CallExpr:
		return callCtx(info, sums, env, e)
	}
	return derived
}

// callCtx evaluates the taint of a Context-returning call.
func callCtx(info *types.Info, sums summaries, env *dataflow.Env, call *ast.CallExpr) uint8 {
	switch isCtxConstructor(info, call) {
	case "source":
		return fresh
	case "derive":
		if len(call.Args) > 0 {
			return exprCtx(info, sums, env, call.Args[0])
		}
		return derived
	}
	if fn := staticCallee(info, call); fn != nil && sums[fn] {
		return fresh
	}
	return derived
}

// isCtxConstructor classifies calls into the context package:
// "source" for Background/TODO, "derive" for the With* family, ""
// otherwise.
func isCtxConstructor(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "context" {
		return ""
	}
	switch fn.Name() {
	case "Background", "TODO":
		return "source"
	case "WithCancel", "WithCancelCause", "WithDeadline", "WithDeadlineCause",
		"WithTimeout", "WithTimeoutCause", "WithValue", "WithoutCancel":
		return "derive"
	}
	return ""
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := staticCallee(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}

// isContextType matches context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Name() == "context"
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(info *types.Info, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// scanCalls yields the call expressions evaluated by one CFG node,
// skipping nested function literals (their own CFG covers them) and
// range statements (whose operand was scanned as its own node).
func scanCalls(n ast.Node, f func(*ast.CallExpr)) {
	if _, ok := n.(*ast.RangeStmt); ok {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			f(x)
		}
		return true
	})
}

// summaries marks module functions whose Context result is fresh on
// every return path.
type summaries map[*types.Func]bool

// moduleSummaries computes (once per module) which module functions
// are always-fresh Context sources.
func moduleSummaries(mod *analysis.Module) (summaries, error) {
	v, err := mod.Fact("ctxflow.summaries", func() (any, error) {
		sums := make(summaries)
		for changed := true; changed; {
			changed = false
			for _, n := range dataflow.ModuleFuncs(mod) {
				fn := n.Obj
				if sums[fn] || !returnsContext(fn) {
					continue
				}
				if alwaysFresh(n, sums) {
					sums[fn] = true
					changed = true
				}
			}
		}
		return sums, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(summaries), nil
}

// returnsContext reports whether fn's only result is a Context.
func returnsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() == 1 && isContextType(sig.Results().At(0).Type())
}

// alwaysFresh reports whether every return of n's body yields a FRESH
// context under the current summaries.
func alwaysFresh(n dataflow.Func, sums summaries) bool {
	info := n.Pkg.TypesInfo
	cfg := dataflow.New(n.Decl.Body)
	fl := ctxFlow(info, sums)
	facts := cfg.Forward(dataflow.Fact(&dataflow.Env{}), fl)
	all, any := true, false
	cfg.Visit(facts, fl, func(node ast.Node, before dataflow.Fact) {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return
		}
		any = true
		if exprCtx(info, sums, before.(*dataflow.Env), ret.Results[0]) != fresh {
			all = false
		}
	})
	return any && all
}
