package dataflow_test

import (
	"go/ast"
	"slices"
	"testing"

	"memsim/internal/lint/dataflow"
)

// cfgOf builds the CFG of the named declared function in src.
func cfgOf(t *testing.T, src, name string) *dataflow.CFG {
	t.Helper()
	for _, f := range checkPkg(t, src).Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return dataflow.New(fd.Body)
			}
		}
	}
	t.Fatalf("no function named %q", name)
	return nil
}

// visited returns the names of the functions called by the top-level
// expression statements that Visit reaches, in visit order. Calls
// inside function literals are not counted: they are not statements of
// this body.
func visited(cfg *dataflow.CFG) []string {
	fl := dataflow.Flow{
		Join:     func(a, _ dataflow.Fact) dataflow.Fact { return a },
		Transfer: func(_ ast.Node, in dataflow.Fact) dataflow.Fact { return in },
		Equal:    func(a, b dataflow.Fact) bool { return a == b },
	}
	var names []string
	cfg.Visit(cfg.Forward(true, fl), fl, func(n ast.Node, _ dataflow.Fact) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				names = append(names, id.Name)
			}
		}
	})
	return names
}

// blockOf returns the block holding n.
func blockOf(t *testing.T, cfg *dataflow.CFG, n ast.Node) *dataflow.Block {
	t.Helper()
	for _, blk := range cfg.Blocks {
		for _, x := range blk.Nodes {
			if x == n {
				return blk
			}
		}
	}
	t.Fatalf("node %T not in any block", n)
	return nil
}

// TestDeferredClosure checks that a deferred closure is one
// straight-line node of its encloser: the return inside the closure
// adds no edge to the encloser's exit, a deferred panic does not end
// the path, and the statement after both is reached.
func TestDeferredClosure(t *testing.T) {
	cfg := cfgOf(t, `package p
func helper() {}
func after()  {}

func d() {
	defer func() {
		helper()
		return
	}()
	defer panic("late")
	after()
}
`, "d")
	entry := cfg.Blocks[0]
	if len(entry.Nodes) != 3 {
		t.Fatalf("entry holds %d nodes, want 3 (two defers and after())", len(entry.Nodes))
	}
	for i, n := range entry.Nodes[:2] {
		if _, ok := n.(*ast.DeferStmt); !ok {
			t.Errorf("entry node %d is %T, want *ast.DeferStmt", i, n)
		}
	}
	if len(entry.Succs) != 1 || entry.Succs[0] != cfg.Blocks[1] {
		t.Errorf("entry has %d successors, want only the exit", len(entry.Succs))
	}
	if got := visited(cfg); !slices.Equal(got, []string{"after"}) {
		t.Errorf("visited calls %v, want [after]: the closure's helper() belongs to the closure", got)
	}
}

// TestVariadicCall checks that a call passing function literals
// through a variadic parameter is one node: the literals' return and
// panic do not end the caller's path, and the callee's name does not
// matter (only the panic builtin terminates).
func TestVariadicCall(t *testing.T) {
	cfg := cfgOf(t, `package p
func v(fs ...func()) {
	for _, f := range fs {
		f()
	}
}

func after() {}

func use() {
	v(func() { return }, func() { panic("inner") })
	v()
	after()
}
`, "use")
	entry := cfg.Blocks[0]
	if len(entry.Nodes) != 3 {
		t.Fatalf("entry holds %d nodes, want 3 (two v calls and after())", len(entry.Nodes))
	}
	if len(entry.Succs) != 1 || entry.Succs[0] != cfg.Blocks[1] {
		t.Errorf("entry has %d successors, want only the exit", len(entry.Succs))
	}
	if got := visited(cfg); !slices.Equal(got, []string{"v", "v", "after"}) {
		t.Errorf("visited calls %v, want [v v after]", got)
	}
}

// TestGoReachable checks reachability around go statements: spawning
// a goroutine, even one that panics, does not end the spawner's path,
// while a direct panic does, and Visit skips what follows it.
func TestGoReachable(t *testing.T) {
	src := `package p
func worker()      {}
func after()       {}
func unreachable() {}

func spawn() {
	go worker()
	go func() { panic("boom") }()
	after()
	panic("stop")
	unreachable()
}
`
	cfg := cfgOf(t, src, "spawn")
	reach := map[*dataflow.Block]bool{cfg.Blocks[0]: true}
	for work := []*dataflow.Block{cfg.Blocks[0]}; len(work) > 0; {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	var goStmts, tail []ast.Node
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			switch n := n.(type) {
			case *ast.GoStmt:
				goStmts = append(goStmts, n)
			case *ast.ExprStmt:
				if id, ok := n.X.(*ast.CallExpr).Fun.(*ast.Ident); ok && id.Name == "unreachable" {
					tail = append(tail, n)
				}
			}
		}
	}
	if len(goStmts) != 2 || len(tail) != 1 {
		t.Fatalf("found %d go statements and %d unreachable() calls, want 2 and 1", len(goStmts), len(tail))
	}
	for _, n := range goStmts {
		if !reach[blockOf(t, cfg, n)] {
			t.Error("go statement is not reachable from the entry")
		}
	}
	if reach[blockOf(t, cfg, tail[0])] {
		t.Error("unreachable() after panic is reachable from the entry")
	}
	if got := visited(cfg); !slices.Equal(got, []string{"after", "panic"}) {
		t.Errorf("visited calls %v, want [after panic]", got)
	}
}
