// Package errdrop flags discarded error returns from the functions
// whose errors the hardening layers exist to surface. PR 1 converted
// the stats constructors and trace.NewRepeat to return errors instead
// of silently degrading, and the paranoid invariant checker
// (internal/core/harden.go) is built from Validate/CheckSane/
// CheckIntegrity calls — dropping one of those errors reopens the
// exact silent-corruption hole the runtime checks were added to
// close. Likewise a checkpoint write (Manifest.Record/Save) whose
// error is discarded can lose a batch's resume state with no trace.
//
// The analyzer reports a call to a must-check function when the call
// is an expression statement, or the function body of a defer or go
// statement — the three shapes where every return value vanishes. An
// explicit `_ =` assignment is treated as a deliberate, visible
// discard and is not flagged (though //lint:ignore also works).
//
// Watched at the root (all must actually return an error):
//
//   - any function or method named Validate, CheckSane or
//     CheckIntegrity (the paranoid-audit surface);
//   - stats.HarmonicMean (the PR 1 constructor);
//   - trace.NewRepeat;
//   - Record and Save on the checkpoint Manifest;
//   - any method named Flush whose only result is an error
//     (tabwriter and friends: a dropped Flush error truncates report
//     output silently);
//   - http.ResponseWriter.Write and json's Encoder.Encode (the
//     memsimd handler surface: a dropped write or encode error hands
//     the client a silently truncated response);
//   - the vfs seam's mutating surface — FS.WriteFile, FS.Rename,
//     FS.Remove, FS.MkdirAll, File.Sync, File.Close, and the
//     WriteFileAtomic and Quarantine helpers: every durable writer
//     funnels through these, and a dropped error there is precisely
//     the silent data loss the chaos explorer exists to rule out.
//
// The watched set then grows interprocedurally: a module function
// that returns a watched call's error inherits must-check status, so
// wrappers cannot launder dropped errors. `func flush() error { return
// w.Flush() }` is as must-check as Flush itself, and so is a second
// wrapper around flush. The set is computed once per module, to a
// fixpoint over the module's functions. Propagation is decided by a
// forward taint analysis over each function's CFG
// (internal/lint/dataflow): the error result of a call to a watched
// (or already-inherited) function taints the variable it is assigned
// to; taint survives fmt.Errorf("…: %w", err) and errors.Join wrapping
// and reassignment kills it; a function whose return statement returns
// a tainted value — or the watched call directly — propagates.
package errdrop

import (
	"go/ast"
	"go/types"

	"memsim/internal/lint/analysis"
	"memsim/internal/lint/dataflow"
)

// Analyzer is the errdrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "flag discarded errors from validation, checkpoint, stats, flush and persistence calls, and from module wrappers that propagate them\n\n" +
		"These errors feed the hardening layers (watchdog, paranoid audit, checkpoint resume); " +
		"dropping one silently reopens the failure class the runtime check exists to catch. " +
		"A function returning a watched call's error inherits must-check status. " +
		"Handle the error, assign it to _ deliberately, or silence a false positive with " +
		"//lint:ignore errdrop <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	tb, err := moduleTable(pass.Module)
	if err != nil {
		return nil, err
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			fn := callee(pass.TypesInfo, call)
			if name, why := classify(fn); name != "" {
				pass.Reportf(call.Pos(), "error returned by %s is discarded: %s", name, why)
			} else if mc, ok := tb.must[fn]; ok {
				pass.Reportf(call.Pos(),
					"error returned by %s is discarded: it propagates the must-check error of %s (%s)",
					fn.Name(), mc.root, mc.why)
			}
			return true
		})
	}
	return nil, nil
}

// classify reports a non-empty display name and rationale when fn is
// one of the root watched error-returning functions.
func classify(fn *types.Func) (string, string) {
	if fn == nil || !returnsError(fn) {
		return "", ""
	}
	recv := receiverTypeName(fn)
	switch fn.Name() {
	case "Validate", "CheckSane", "CheckIntegrity":
		return display(fn, recv), "it feeds the paranoid invariant audit; handle it or the corruption it found stays invisible"
	case "HarmonicMean":
		if pkgNamed(fn, "stats") {
			return display(fn, recv), "a broken measurement (NaN or a non-positive rate) would pass silently into reported results"
		}
	case "NewRepeat":
		if pkgNamed(fn, "trace") {
			return display(fn, recv), "an invalid trace spec would simulate garbage instead of failing fast"
		}
	case "Record", "Save":
		if recv == "Manifest" {
			return display(fn, recv), "a failed checkpoint write loses resume state with no trace"
		}
	case "Flush":
		if recv != "" && onlyError(fn) {
			return display(fn, recv), "a failed flush truncates the report silently"
		}
	case "Write":
		if recv == "ResponseWriter" && pkgNamed(fn, "http") {
			return display(fn, recv), "a failed response write leaves the client a truncated body; at least log it"
		}
	case "Encode":
		if recv == "Encoder" && pkgNamed(fn, "json") {
			return display(fn, recv), "an encode failure truncates the JSON response silently; at least log it"
		}
	case "WriteFile", "Rename", "Remove", "MkdirAll":
		if recv == "FS" && pkgNamed(fn, "vfs") {
			return display(fn, recv), "a failed persistence boundary means the bytes never reached disk; dropping it is silent data loss"
		}
	case "Sync", "Close":
		if recv == "File" && pkgNamed(fn, "vfs") {
			return display(fn, recv), "Sync/Close is the handle's publishing boundary; a dropped error leaves the file torn or unwritten"
		}
	case "WriteFileAtomic", "Quarantine":
		if pkgNamed(fn, "vfs") {
			return display(fn, recv), "the atomic-flush/quarantine helper failed; the durable state it guards was not updated"
		}
	}
	return "", ""
}

// callee resolves the statically called function or method, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// returnsError reports whether fn's last result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}

// onlyError reports whether fn returns exactly one value, an error.
func onlyError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() == 1 && returnsError(fn)
}

// receiverTypeName reports the base type name of fn's receiver, or "".
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "" // interface method; name-only match still applies upstream
	}
	return ""
}

func pkgNamed(fn *types.Func, name string) bool {
	return fn.Pkg() != nil && fn.Pkg().Name() == name
}

func display(fn *types.Func, recv string) string {
	if recv != "" {
		return recv + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// mustCheck records why a function's error must be checked: the
// display name of the root watched function and its rationale.
type mustCheck struct {
	root string
	why  string
}

// table is the module-wide fixpoint result.
type table struct {
	must map[*types.Func]mustCheck
	// origins maps tainted variables to the watched call that
	// produced their value, for diagnostic text during summary
	// construction.
	origins map[types.Object]mustCheck
}

// moduleTable computes (once per module) the set of functions that
// propagate must-check errors, to a fixpoint so chains of wrappers
// inherit through any number of hops.
func moduleTable(mod *analysis.Module) (*table, error) {
	v, err := mod.Fact("errdrop.table", func() (any, error) {
		tb := &table{
			must:    make(map[*types.Func]mustCheck),
			origins: make(map[types.Object]mustCheck),
		}
		for changed := true; changed; {
			changed = false
			for _, n := range dataflow.ModuleFuncs(mod) {
				fn := n.Obj
				if !returnsError(fn) {
					continue
				}
				if _, done := tb.must[fn]; done {
					continue
				}
				if name, _ := classify(fn); name != "" {
					continue // already in the base watched set
				}
				if mc, ok := tb.propagates(n); ok {
					tb.must[fn] = mc
					changed = true
				}
			}
		}
		return tb, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*table), nil
}

// lookup reports the must-check pedigree of a callee: a base watched
// function or an inherited wrapper.
func (tb *table) lookup(fn *types.Func) (mustCheck, bool) {
	if fn == nil {
		return mustCheck{}, false
	}
	if name, why := classify(fn); name != "" {
		return mustCheck{root: name, why: why}, true
	}
	mc, ok := tb.must[fn]
	return mc, ok
}

// propagates reports whether n's function returns (on some path) an
// error that originated in a watched call.
func (tb *table) propagates(n dataflow.Func) (mustCheck, bool) {
	info := n.Pkg.TypesInfo
	named := namedErrorResults(n.Decl, info)
	cfg := dataflow.New(n.Decl.Body)
	fl := tb.flow(info)
	facts := cfg.Forward(dataflow.Fact(&dataflow.Env{}), fl)

	var found mustCheck
	ok := false
	cfg.Visit(facts, fl, func(node ast.Node, before dataflow.Fact) {
		if ok {
			return
		}
		ret, isRet := node.(*ast.ReturnStmt)
		if !isRet {
			return
		}
		env := before.(*dataflow.Env)
		if len(ret.Results) == 0 {
			for _, obj := range named {
				if mc, tainted := tb.taintObj(env, obj); tainted {
					found, ok = mc, true
					return
				}
			}
			return
		}
		for _, res := range ret.Results {
			if mc, tainted := tb.taintExpr(info, env, res); tainted {
				found, ok = mc, true
				return
			}
		}
	})
	return found, ok
}

// flow is the taint lattice: tracked error variables carry 1 when they
// hold a must-check error.
func (tb *table) flow(info *types.Info) dataflow.Flow {
	return dataflow.Flow{
		Join: func(a, b dataflow.Fact) dataflow.Fact {
			return dataflow.Fact(dataflow.Join(a.(*dataflow.Env), b.(*dataflow.Env), func(x, y uint8) uint8 {
				if x > y {
					return x
				}
				return y
			}))
		},
		Equal: func(a, b dataflow.Fact) bool {
			return a.(*dataflow.Env).Equal(b.(*dataflow.Env))
		},
		Transfer: func(node ast.Node, in dataflow.Fact) dataflow.Fact {
			env := in.(*dataflow.Env)
			switch node := node.(type) {
			case *ast.AssignStmt:
				return dataflow.Fact(tb.assign(info, env, node.Lhs, node.Rhs))
			case *ast.DeclStmt:
				gd, ok := node.Decl.(*ast.GenDecl)
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
					out = tb.assign(info, out, lhs, vs.Values)
				}
				return dataflow.Fact(out)
			}
			return in
		},
	}
}

// assign applies one (possibly multi-value) assignment to the taint
// environment.
func (tb *table) assign(info *types.Info, env *dataflow.Env, lhs, rhs []ast.Expr) *dataflow.Env {
	out := env.Clone()
	if len(rhs) == 1 && len(lhs) > 1 {
		// v, err := f(): the callee's must-check status taints the
		// error-typed targets; everything else is overwritten clean.
		mc, tainted := mustCheck{}, false
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			mc, tainted = tb.lookup(callee(info, call))
		}
		for _, l := range lhs {
			obj := assignee(info, l)
			if obj == nil {
				continue
			}
			if tainted && isErrorType(obj.Type()) {
				out.Set(obj, 1)
				tb.origins[obj] = mc
			} else {
				out.Set(obj, 0)
			}
		}
		return out
	}
	for i, l := range lhs {
		obj := assignee(info, l)
		if obj == nil || i >= len(rhs) {
			continue
		}
		if mc, tainted := tb.taintExpr(info, env, rhs[i]); tainted && isErrorType(obj.Type()) {
			out.Set(obj, 1)
			tb.origins[obj] = mc
		} else {
			out.Set(obj, 0)
		}
	}
	return out
}

// taintExpr reports whether evaluating e yields a must-check error:
// a tainted variable, a call to a watched/inherited function, or a
// fmt.Errorf / errors.Join wrapping of one.
func (tb *table) taintExpr(info *types.Info, env *dataflow.Env, e ast.Expr) (mustCheck, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return mustCheck{}, false
		}
		return tb.taintObj(env, obj)
	case *ast.CallExpr:
		fn := callee(info, e)
		if mc, ok := tb.lookup(fn); ok {
			return mc, true
		}
		if isWrapCall(fn) {
			for _, arg := range e.Args {
				if mc, ok := tb.taintExpr(info, env, arg); ok {
					return mc, true
				}
			}
		}
	}
	return mustCheck{}, false
}

func (tb *table) taintObj(env *dataflow.Env, obj types.Object) (mustCheck, bool) {
	if v, ok := env.Get(obj); ok && v == 1 {
		return tb.origins[obj], true
	}
	return mustCheck{}, false
}

// assignee resolves an assignment target to its variable object;
// blank, field and index targets return nil (untracked).
func assignee(info *types.Info, l ast.Expr) types.Object {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return info.ObjectOf(id)
}

// isWrapCall matches the error-wrapping constructors taint survives.
func isWrapCall(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Name() {
	case "fmt":
		return fn.Name() == "Errorf"
	case "errors":
		return fn.Name() == "Join"
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// namedErrorResults collects the declared error-typed named results,
// which a naked return returns implicitly.
func namedErrorResults(decl *ast.FuncDecl, info *types.Info) []types.Object {
	if decl == nil || decl.Type.Results == nil {
		return nil
	}
	var out []types.Object
	for _, field := range decl.Type.Results.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isErrorType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}
