// Package eventtime guards the scheduler's time discipline at call
// sites. sim.Scheduler clamps past times to the present and negative
// delays to zero at runtime, and the forward-progress watchdog
// eventually notices a component whose events stopped landing when it
// meant to schedule them — but both only fire after the simulation has
// silently produced wrong timing. This analyzer catches the two
// recurring shapes of the "scheduled in the past" bug class before the
// code runs:
//
//   - a time argument built by subtracting from Scheduler.Now()
//     (`s.AtCall(s.Now()-penalty, cb, arg)`): the subtraction lands in
//     the past whenever the penalty is positive, and the runtime clamp
//     turns the intended delay into "immediately", skewing all
//     downstream timing;
//
//   - a bare non-zero integer literal passed where a sim.Time is
//     expected (`s.ScheduleCall(100, cb, arg)`): raw picosecond counts
//     are never what the author meant — real delays are derived from
//     timing configuration or written as a multiple of a sim unit
//     (100*sim.Nanosecond). A literal 0 ("fire as soon as possible")
//     is idiomatic and allowed.
//
// False positives are silenced with `//lint:ignore eventtime reason`.
package eventtime

import (
	"go/ast"
	"go/token"
	"go/types"

	"memsim/internal/lint/analysis"
)

// Analyzer is the eventtime pass.
var Analyzer = &analysis.Analyzer{
	Name: "eventtime",
	Doc: "flag sim.Scheduler scheduling calls (ScheduleCall, AtCall) that subtract from Now() or pass a bare integer literal\n\n" +
		"Subtracting from Now() schedules in the past (the runtime clamps it, silently skewing timing); " +
		"bare non-zero literals bypass the sim.Time unit system.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 {
				return true
			}
			name, ok := schedulerMethod(pass, call)
			if !ok {
				return true
			}
			arg := call.Args[0]
			if sub := subtractionFromNow(pass, arg); sub != nil {
				pass.Reportf(arg.Pos(), "%s called with a time subtracted from Now(): the result lands in the past and is clamped to the present, silently skewing event timing", name)
			} else if lit := bareIntLiteral(arg); lit != nil {
				pass.Reportf(arg.Pos(), "%s called with bare integer literal %s as a sim.Time: write it as a multiple of a sim unit (e.g. %s*sim.Nanosecond) or derive it from timing configuration", name, lit.Value, lit.Value)
			}
			return true
		})
	}
	return nil, nil
}

// schedulerMethod reports whether call invokes ScheduleCall or AtCall
// on a sim.Scheduler, returning the method name. Matching is by receiver
// type name and package name so fixtures with a stub sim package
// exercise the same path as the real memsim/internal/sim.
func schedulerMethod(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "sim" {
		return "", false
	}
	switch fn.Name() {
	case "ScheduleCall", "AtCall":
	default:
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Scheduler" {
		return "", false
	}
	return "Scheduler." + fn.Name(), true
}

// subtractionFromNow finds a `Now() - x` subexpression anywhere in e.
func subtractionFromNow(pass *analysis.Pass, e ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op != token.SUB {
			return true
		}
		if isNowCall(pass, bin.X) {
			found = bin
			return false
		}
		return true
	})
	return found
}

// isNowCall reports whether e is (possibly parenthesized) a call to a
// method named Now in a package named sim.
func isNowCall(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Name() == "sim"
}

// bareIntLiteral reports e as a non-zero integer literal (possibly
// parenthesized or negated), the shape that bypasses sim.Time units.
func bareIntLiteral(e ast.Expr) *ast.BasicLit {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return nil
	}
	if lit.Value == "0" {
		return nil
	}
	return lit
}
