// Package unitflow type-taints time units through each function's CFG
// to keep sim.Time (picoseconds) and time.Duration / integer
// nanoseconds from mixing, and keeps the scheduler's deadlines out of
// the past. A conversion launders units silently:
// `sim.Time(d.Nanoseconds())` type-checks, compiles, and schedules an
// event a thousand times too early, exactly the class of silent unit
// bug the paper's latency accounting cannot survive.
//
// The lattice tracks where an integer value came from:
//
//   - SIM: a sim.Time expression (scheduler Now, sim.Nanosecond, …)
//   - WALL: wall-clock nanoseconds — a time.Duration, Nanoseconds()
//     and friends, time.Since/Until — surviving any chain of integer
//     or sim.Time conversions
//   - LIT: a bare integer literal, surviving conversions the same way
//
// The one blessing that clears WALL/LIT taint is multiplication by a
// sim unit constant, the repo's canonical conversion idiom:
// `sim.Time(d.Nanoseconds()) * sim.Nanosecond`. Division by a sim
// unit converts the other way, yielding WALL nanoseconds fit for
// time.Duration. Diagnostics fire on: a WALL value assigned or passed
// into a sim.Time slot; sim.Time added to / subtracted from WALL; a
// LIT value — a non-zero constant such as `ScheduleCall(100, …)` or a
// laundered variable — reaching a sim.Time parameter; and a sim.Time
// value converted directly to time.Duration. A literal 0 ("fire as
// soon as possible") is idiomatic and allowed.
//
// One rule is specific to sim.Scheduler: a sim.Time argument of a
// Scheduler method built by subtracting from Now()
// (`s.AtCall(s.Now()-penalty, cb, arg)`) lands in the past whenever
// the penalty is positive. The scheduler clamps it to the present,
// turning the intended delay into "immediately" and skewing all
// downstream timing, so it is reported before the code runs.
package unitflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"memsim/internal/lint/analysis"
	"memsim/internal/lint/dataflow"
)

// Analyzer is the unitflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "unitflow",
	Doc: "flag wall-clock nanoseconds and bare literals flowing into sim.Time picoseconds, and scheduler times subtracted from Now()\n\n" +
		"Convert with the blessed idiom sim.Time(ns) * sim.Nanosecond (and back with " +
		"t / sim.Nanosecond); a raw conversion keeps the wrong unit. A Scheduler deadline " +
		"below Now() is clamped to the present, silently skewing timing. Silence intentional " +
		"cases with //lint:ignore unitflow <reason>.",
	Run: run,
}

// Units. unknown doubles as "not tracked".
const (
	unknown uint8 = 0
	simU    uint8 = 1
	wallU   uint8 = 2
	litU    uint8 = 3
)

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkBody analyzes one body and recurses into nested literals.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	reportUnits(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkBody(pass, lit.Body)
			return false
		}
		return true
	})
}

func reportUnits(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	cfg := dataflow.New(body)
	fl := unitFlow(info)
	facts := cfg.Forward(dataflow.Fact(&dataflow.Env{}), fl)
	cfg.Visit(facts, fl, func(n ast.Node, before dataflow.Fact) {
		env := before.(*dataflow.Env)
		scanExprs(n, func(e ast.Expr) { checkExpr(pass, env, e) })
		if as, ok := n.(*ast.AssignStmt); ok {
			checkAssign(pass, env, as)
		}
	})
}

// checkExpr reports unit violations inside one expression.
func checkExpr(pass *analysis.Pass, env *dataflow.Env, e ast.Expr) {
	info := pass.TypesInfo
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.ADD && e.Op != token.SUB {
			return
		}
		l, r := exprUnit(info, env, e.X), exprUnit(info, env, e.Y)
		if (l == simU && r == wallU) || (l == wallU && r == simU) {
			pass.Reportf(e.OpPos,
				"cross-unit arithmetic: sim.Time picoseconds %s wall-clock nanoseconds; convert one side first", e.Op)
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: flag sim.Time flowing raw into time.Duration.
			if isDuration(tv.Type) && len(e.Args) == 1 &&
				exprUnit(info, env, e.Args[0]) == simU {
				pass.Reportf(e.Pos(),
					"sim.Time (picoseconds) converted directly to time.Duration (nanoseconds); divide by a sim unit first (t / sim.Nanosecond)")
			}
			return
		}
		sig := callSignature(info, e)
		if sig == nil {
			return
		}
		method := schedulerMethod(info, e)
		for i, arg := range e.Args {
			p := paramAt(sig, i)
			if p == nil || !isSimTime(p.Type()) {
				continue
			}
			if method != "" && subtractsFromNow(info, arg) {
				pass.Reportf(arg.Pos(),
					"%s called with a time subtracted from Now(): the result lands in the past and is clamped to the present, silently skewing event timing", method)
				continue
			}
			switch exprUnit(info, env, arg) {
			case wallU:
				pass.Reportf(arg.Pos(),
					"wall-clock nanoseconds passed as sim.Time picoseconds; use sim.Time(ns) * sim.Nanosecond")
			case litU:
				if tv, ok := info.Types[arg]; ok && tv.Value != nil {
					if constant.Sign(tv.Value) != 0 {
						pass.Reportf(arg.Pos(),
							"bare integer %s passed as a sim.Time argument: write it as a multiple of a sim unit (e.g. %s*sim.Nanosecond) or derive it from timing configuration", tv.Value, tv.Value)
					}
					continue
				}
				pass.Reportf(arg.Pos(),
					"bare integer laundered into a sim.Time argument; give it a unit (multiply by sim.Nanosecond or a sim constant)")
			}
		}
	}
}

// checkAssign reports WALL values landing in sim.Time variables or
// fields.
func checkAssign(pass *analysis.Pass, env *dataflow.Env, as *ast.AssignStmt) {
	info := pass.TypesInfo
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		lt := info.TypeOf(l)
		if lt == nil || !isSimTime(lt) {
			continue
		}
		if as.Tok == token.DEFINE {
			// The declared type is inferred from the RHS; the RHS
			// checks (conversions, call args) already cover it.
			continue
		}
		if exprUnit(info, env, as.Rhs[i]) == wallU {
			pass.Reportf(as.Rhs[i].Pos(),
				"wall-clock nanoseconds assigned to a sim.Time slot; use sim.Time(ns) * sim.Nanosecond")
		}
	}
}

// unitFlow is the lattice over tracked integer variables.
func unitFlow(info *types.Info) dataflow.Flow {
	return dataflow.Flow{
		Join: func(a, b dataflow.Fact) dataflow.Fact {
			return dataflow.Fact(dataflow.Join(a.(*dataflow.Env), b.(*dataflow.Env), joinUnit))
		},
		Equal: func(a, b dataflow.Fact) bool {
			return a.(*dataflow.Env).Equal(b.(*dataflow.Env))
		},
		Transfer: func(n ast.Node, in dataflow.Fact) dataflow.Fact {
			env := in.(*dataflow.Env)
			switch n := n.(type) {
			case *ast.AssignStmt:
				return dataflow.Fact(unitAssign(info, env, n.Lhs, n.Rhs))
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
					out = unitAssign(info, out, lhs, vs.Values)
				}
				return dataflow.Fact(out)
			}
			return in
		},
	}
}

// joinUnit merges units at a path merge: agreement keeps the unit,
// WALL wins over SIM (pessimistic: one polluted path pollutes the
// merge), LIT dissolves into anything more specific.
func joinUnit(x, y uint8) uint8 {
	switch {
	case x == y:
		return x
	case x == litU:
		return y
	case y == litU:
		return x
	case x == unknown || y == unknown:
		return unknown
	default: // {SIM, WALL} mix
		return wallU
	}
}

// unitAssign applies one assignment to the environment.
func unitAssign(info *types.Info, env *dataflow.Env, lhs, rhs []ast.Expr) *dataflow.Env {
	if len(lhs) != len(rhs) {
		return env
	}
	out := env.Clone()
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil || !trackable(obj.Type()) {
			continue
		}
		out.Set(obj, exprUnit(info, env, rhs[i]))
	}
	return out
}

// trackable limits the environment to integer-family variables.
func trackable(t types.Type) bool {
	if isSimTime(t) || isDuration(t) {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat) != 0
}

// exprUnit evaluates the unit of an expression.
func exprUnit(info *types.Info, env *dataflow.Env, e ast.Expr) uint8 {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT || e.Kind == token.FLOAT {
			return litU
		}
		return unknown
	case *ast.Ident:
		return identUnit(info, env, e)
	case *ast.SelectorExpr:
		if _, ok := info.Uses[e.Sel].(*types.Func); ok {
			return unknown // method value, not a call
		}
		return identUnit(info, env, e.Sel)
	case *ast.CallExpr:
		return callUnit(info, env, e)
	case *ast.BinaryExpr:
		return binaryUnit(info, env, e)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD || e.Op == token.XOR {
			return exprUnit(info, env, e.X)
		}
		return unknown
	}
	return staticUnit(info.TypeOf(e))
}

// identUnit resolves an identifier (or selector field) through the
// environment first, the static type second.
func identUnit(info *types.Info, env *dataflow.Env, id *ast.Ident) uint8 {
	obj := info.ObjectOf(id)
	if obj == nil {
		return unknown
	}
	if c, ok := obj.(*types.Const); ok {
		return constUnit(c.Type())
	}
	if v, ok := env.Get(obj); ok {
		return v
	}
	return staticUnit(obj.Type())
}

// constUnit classifies a constant by its type: typed sim.Time
// constants (sim.Nanosecond) are SIM, typed Durations WALL, and any
// other constant LIT.
func constUnit(t types.Type) uint8 {
	switch {
	case isSimTime(t):
		return simU
	case isDuration(t):
		return wallU
	}
	return litU
}

// callUnit evaluates calls and conversions.
func callUnit(info *types.Info, env *dataflow.Env, call *ast.CallExpr) uint8 {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: WALL and LIT taint survives; otherwise the
		// target type decides.
		if len(call.Args) == 1 {
			inner := exprUnit(info, env, call.Args[0])
			if inner == wallU || inner == litU {
				return inner
			}
		}
		return staticUnit(tv.Type)
	}
	if fn := calleeOf(info, call); fn != nil {
		if wallClockCall(fn) {
			return wallU
		}
	}
	return staticUnit(info.TypeOf(call))
}

// binaryUnit evaluates arithmetic, implementing the blessing rules.
func binaryUnit(info *types.Info, env *dataflow.Env, e *ast.BinaryExpr) uint8 {
	l, r := exprUnit(info, env, e.X), exprUnit(info, env, e.Y)
	switch e.Op {
	case token.MUL:
		// Multiplying by a sim unit constant is the conversion idiom:
		// the result is genuine picoseconds.
		if isSimUnitConst(info, e.X) || isSimUnitConst(info, e.Y) {
			return simU
		}
		return joinArith(l, r)
	case token.QUO:
		// Dividing by a sim unit converts out of picoseconds into a
		// wall-compatible count.
		if l == simU && isSimUnitConst(info, e.Y) {
			return wallU
		}
		return l
	case token.ADD, token.SUB, token.REM:
		return joinArith(l, r)
	}
	return unknown
}

// joinArith combines operand units: the more specific unit wins, WALL
// pollutes SIM.
func joinArith(l, r uint8) uint8 {
	switch {
	case l == r:
		return l
	case l == litU:
		return r
	case r == litU:
		return l
	case l == unknown:
		return r
	case r == unknown:
		return l
	default: // {SIM, WALL}
		return wallU
	}
}

// isSimUnitConst matches references to sim's unit constants
// (Picosecond … Second), the blessing operand.
func isSimUnitConst(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := info.ObjectOf(id).(*types.Const)
	if !ok || !isSimTime(c.Type()) {
		return false
	}
	switch c.Name() {
	case "Picosecond", "Nanosecond", "Microsecond", "Millisecond", "Second":
		return true
	}
	return false
}

// staticUnit classifies a type with no flow information.
func staticUnit(t types.Type) uint8 {
	switch {
	case t == nil:
		return unknown
	case isSimTime(t):
		return simU
	case isDuration(t):
		return wallU
	}
	return unknown
}

// wallClockCall matches calls that produce wall-clock quantities with
// a non-Duration static type: the Nanoseconds/Seconds extractors on
// time.Duration, time.Time's Unix family, and sim.Time's own
// Nanoseconds bridge.
func wallClockCall(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	switch {
	case isDuration(recv), isSimTime(recv), isTimeTime(recv):
		switch fn.Name() {
		case "Nanoseconds", "Microseconds", "Milliseconds", "Seconds",
			"Unix", "UnixMilli", "UnixMicro", "UnixNano":
			return true
		}
	}
	return false
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
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

// schedulerMethod returns "Scheduler.<name>" when call invokes a
// method of sim.Scheduler, or "". Matching is by package and receiver
// type name, so fixtures with a stub sim package exercise the same
// path as the real memsim/internal/sim.
func schedulerMethod(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "sim" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Scheduler" {
		return ""
	}
	return "Scheduler." + fn.Name()
}

// subtractsFromNow reports whether e contains a `Now() - x`
// subexpression, Now being a method of package sim.
func subtractsFromNow(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if bin, ok := n.(*ast.BinaryExpr); ok && bin.Op == token.SUB {
			if call, ok := ast.Unparen(bin.X).(*ast.CallExpr); ok {
				fn := calleeOf(info, call)
				found = fn != nil && fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Name() == "sim"
			}
		}
		return !found
	})
	return found
}

// callSignature resolves the signature of a (non-conversion) call.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// paramAt returns the parameter for argument index i, handling
// variadics.
func paramAt(sig *types.Signature, i int) *types.Var {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1)
		if s, ok := last.Type().(*types.Slice); ok {
			return types.NewVar(last.Pos(), last.Pkg(), last.Name(), s.Elem())
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i)
}

// scanExprs yields the expressions a CFG node evaluates, skipping
// nested literals and the range statement (its operand is its own
// node).
func scanExprs(n ast.Node, f func(ast.Expr)) {
	if _, ok := n.(*ast.RangeStmt); ok {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case ast.Expr:
			f(x)
		}
		return true
	})
}

// isSimTime matches the sim package's Time type by name, so the real
// module (memsim/internal/sim) and fixtures (sim) both match.
func isSimTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// isDuration matches time.Duration.
func isDuration(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Name() == "time"
}

// isTimeTime matches time.Time.
func isTimeTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Name() == "time"
}
