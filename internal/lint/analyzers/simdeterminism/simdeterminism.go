// Package simdeterminism enforces the bit-identical-replay contract of
// the simulator: two runs of the same configuration must produce the
// same results, and `Parallelism 1 vs N` batches must agree (the PR 2
// determinism regression test checks this at runtime; this analyzer
// keeps the bug class out at compile time).
//
// It reports three things:
//
//  1. Iteration over a map whose order can leak into results. A
//     `range` over a map anywhere in the module is flagged unless the
//     loop is one of the two provably order-insensitive shapes: the
//     canonical collect-keys-then-slices.Sort pattern (see
//     internal/core/harden.go, checkInvariants), or a pure integer
//     accumulation (n += v, counters), whose result does not depend
//     on visit order. Map clears (`delete` of the ranged map) are
//     also allowed.
//
//  2. time.Now inside the simulation core. Wall-clock reads make
//     event timing host-dependent; simulated time comes only from
//     sim.Scheduler.Now.
//
//  3. Global math/rand state or goroutine spawns inside the
//     simulation core. The global rand source is process-seeded (and
//     shared), and goroutines introduce scheduling nondeterminism in
//     the event loop; randomness must flow from explicitly seeded
//     *rand.Rand values owned by the workload layer, and concurrency
//     belongs to the orchestration layer (internal/experiments),
//     which replays results deterministically.
//
// False positives are silenced with
// `//lint:ignore simdeterminism reason`.
package simdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"memsim/internal/lint/analysis"
)

// simCorePackages are the packages that execute inside the event loop,
// where wall-clock time, global randomness and goroutines are banned
// outright: the simulator proper plus the obs hooks and the cluster
// fabric. Matched as trailing "internal/<name>" path segments so the
// analyzer works identically on the real module and on test fixtures.
var simCorePackages = []string{
	"sim", "core", "cpu", "cache", "memctrl", "channel", "dram", "addrmap",
	"prefetch", "policy", "workload", "trace", "stats", "obs", "cluster",
}

// Analyzer is the simdeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "flag map iteration, wall-clock time, global rand and goroutines that break simulator determinism\n\n" +
		"Map ranges must either collect keys and sort them (the harden.go pattern) or only perform " +
		"order-insensitive integer accumulation. time.Now, global math/rand and go statements are " +
		"banned inside the simulation core packages.",
	Run: run,
}

// inSimCore reports whether pkgPath is one of the event-loop packages.
func inSimCore(pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] != "internal" {
			continue
		}
		for _, name := range simCorePackages {
			if segs[i+1] == name {
				return true
			}
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	core := inSimCore(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			case *ast.GoStmt:
				if core {
					pass.Reportf(n.Pos(), "goroutine spawned inside simulation core package %s: the event loop must stay single-threaded for deterministic replay", pass.Pkg.Name())
				}
			case *ast.CallExpr:
				if core {
					checkCoreCall(pass, n)
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkCoreCall flags time.Now() and global math/rand use inside the
// simulation core.
func checkCoreCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now in simulation core: simulated time comes from sim.Scheduler.Now, wall-clock reads are host-dependent")
		}
	case "math/rand", "math/rand/v2":
		// Constructors build explicitly seeded sources and are fine;
		// everything else at package level touches the global source.
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		default:
			if fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(), "global math/rand.%s in simulation core: randomness must come from an explicitly seeded *rand.Rand", fn.Name())
			}
		}
	}
}

// checkMapRange flags a range over a map value unless the loop is
// order-insensitive.
func checkMapRange(pass *analysis.Pass, f *ast.File, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if collected, targets := isKeyCollection(pass, rs); collected {
		if sortedAfter(pass, f, rs, targets) {
			return
		}
		pass.Reportf(rs.Pos(), "map keys are collected but never sorted: call slices.Sort (or sort.*) on %s before iterating further", strings.Join(targets, ", "))
		return
	}
	if isIntegerAccumulation(pass, rs) {
		return
	}
	pass.Reportf(rs.Pos(), "iteration over map is nondeterministically ordered: collect the keys, sort them, and range over the slice (see internal/core/harden.go)")
}

// isKeyCollection reports whether every effectful statement in the
// loop body appends the iteration variables (or expressions derived
// from them) to local slices, returning the slice names. if-guards and
// continue are allowed; anything else disqualifies the shape.
func isKeyCollection(pass *analysis.Pass, rs *ast.RangeStmt) (bool, []string) {
	var targets []string
	seen := map[string]bool{}
	var ok func(stmts []ast.Stmt) bool
	ok = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.AssignStmt:
				// target = append(target, ...)
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
					return false
				}
				id, _ := s.Lhs[0].(*ast.Ident)
				call, _ := s.Rhs[0].(*ast.CallExpr)
				if id == nil || call == nil || !isBuiltin(pass, call.Fun, "append") {
					return false
				}
				if base, _ := call.Args[0].(*ast.Ident); base == nil || base.Name != id.Name {
					return false
				}
				if !seen[id.Name] {
					seen[id.Name] = true
					targets = append(targets, id.Name)
				}
			case *ast.IfStmt:
				if s.Init != nil {
					return false
				}
				if !ok(s.Body.List) {
					return false
				}
				if s.Else != nil {
					eb, isBlock := s.Else.(*ast.BlockStmt)
					if !isBlock || !ok(eb.List) {
						return false
					}
				}
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if !ok(rs.Body.List) || len(targets) == 0 {
		return false, nil
	}
	return true, targets
}

// sortedAfter reports whether every collected slice is passed to a
// sort call (slices.Sort*, sort.*) in a statement after the range loop
// within the same enclosing block.
func sortedAfter(pass *analysis.Pass, f *ast.File, rs *ast.RangeStmt, targets []string) bool {
	block := enclosingBlock(f, rs)
	if block == nil {
		return false
	}
	sorted := map[string]bool{}
	after := false
	for _, s := range block.List {
		if s == ast.Stmt(rs) {
			after = true
			continue
		}
		if !after {
			continue
		}
		ast.Inspect(s, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall || len(call.Args) == 0 {
				return true
			}
			sel, isSel := call.Fun.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !isFn || fn.Pkg() == nil {
				return true
			}
			pkg := fn.Pkg().Path()
			if pkg != "slices" && pkg != "sort" {
				return true
			}
			if !strings.HasPrefix(fn.Name(), "Sort") && !isSortHelper(fn.Name()) {
				return true
			}
			if arg, isIdent := call.Args[0].(*ast.Ident); isIdent {
				sorted[arg.Name] = true
			}
			return true
		})
	}
	for _, t := range targets {
		if !sorted[t] {
			return false
		}
	}
	return true
}

// isSortHelper matches the sort-package convenience functions that
// don't start with "Sort" (sort.Strings, sort.Ints, sort.Float64s,
// sort.Slice...).
func isSortHelper(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
		return true
	}
	return false
}

// isIntegerAccumulation reports whether the loop body consists solely
// of order-insensitive integer updates: x++, x--, and op-assignments
// with +=, -=, |=, &=, ^= to integer-typed destinations, optionally
// under if-guards, plus deletes from the ranged map itself (Go's map
// clear idiom).
func isIntegerAccumulation(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	rangedMap := types.ExprString(rs.X)
	var ok func(stmts []ast.Stmt) bool
	ok = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.IncDecStmt:
				if !isIntegerExpr(pass, s.X) {
					return false
				}
			case *ast.AssignStmt:
				switch s.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				default:
					return false
				}
				for _, lhs := range s.Lhs {
					if !isIntegerExpr(pass, lhs) {
						return false
					}
				}
			case *ast.ExprStmt:
				// delete(m, k) on the ranged map.
				call, isCall := s.X.(*ast.CallExpr)
				if !isCall || !isBuiltin(pass, call.Fun, "delete") {
					return false
				}
				if types.ExprString(call.Args[0]) != rangedMap {
					return false
				}
			case *ast.IfStmt:
				if s.Init != nil {
					return false
				}
				if !ok(s.Body.List) {
					return false
				}
				if s.Else != nil {
					eb, isBlock := s.Else.(*ast.BlockStmt)
					if !isBlock || !ok(eb.List) {
						return false
					}
				}
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return ok(rs.Body.List)
}

func isIntegerExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// enclosingBlock finds the innermost *ast.BlockStmt containing stmt.
func enclosingBlock(f *ast.File, stmt ast.Stmt) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		// Descend only into nodes that span stmt.
		if n.Pos() > stmt.Pos() || n.End() < stmt.End() {
			return false
		}
		if b, ok := n.(*ast.BlockStmt); ok {
			for _, s := range b.List {
				if s == stmt {
					best = b
				}
			}
		}
		return true
	})
	return best
}
