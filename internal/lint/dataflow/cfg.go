// Package dataflow is the analysis engine underneath the
// interprocedural memlint analyzers (errdrop, ctxflow; DESIGN.md §14):
// a basic-block control-flow graph built from syntax, a generic
// forward worklist solver over lattice facts, a deterministic variable
// environment, and an index of the module's declared functions for
// module-wide summaries. Everything is standard library only, riding
// the go/types information the loader (internal/lint/loader) already
// produces.
//
// The engine is deliberately a conservative approximation, not an SSA
// construction: blocks carry the original ast.Node sequence in
// execution order, and analyzers supply transfer functions over those
// nodes. That keeps analyzers close to the syntax they report on while
// the CFG supplies the path structure (branch joins, loops) that the
// purely syntactic PR 3 analyzers could not see.
package dataflow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal sequence of nodes that execute
// in order, ending where control may transfer. Nodes holds statements
// and the control expressions that are evaluated inside the block (an
// if condition, a range operand), in evaluation order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Blocks[0] is
// the entry and Blocks[1] the exit; every return, panic, and the
// implicit fall-off-the-end edge lead to the exit. Blocks unreachable
// from the entry (code after return, break targets never broken to)
// stay in the slice with no predecessors, which the solver treats as
// unreachable (bottom facts).
type CFG struct {
	Blocks []*Block
}

// New builds the CFG of a function body. A nil body (declarations
// without bodies) yields a two-block graph with entry wired to exit.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}}
	entry := b.newBlock()
	b.exit = b.newBlock()
	b.cur = entry
	if body != nil {
		b.stmts(body.List)
	}
	b.edge(b.cur, b.exit)
	return b.cfg
}

// builder holds the under-construction graph and the targets that
// break, continue and goto resolve against.
type builder struct {
	cfg  *CFG
	cur  *Block
	exit *Block

	// loops and switches stack for break/continue resolution; the
	// innermost entry with a matching (or empty) label wins.
	targets []target
	// labelBlocks maps a label name to the block a goto jumps to.
	labelBlocks map[string]*Block
	// pendingLabel is the label of the LabeledStmt currently being
	// built, claimed by the next loop or switch for labeled break.
	pendingLabel string
	// fallthroughTo is the next case clause's block while building a
	// switch clause body.
	fallthroughTo *Block
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// dead replaces the current block after a jump: subsequent statements
// are unreachable but still get a (predecessor-less) home so analyzers
// can skip them uniformly.
func (b *builder) dead() {
	b.cur = b.newBlock()
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findTarget resolves a break/continue: the innermost target matching
// label (or any, for an unlabeled branch). wantContinue restricts to
// loops.
func (b *builder) findTarget(label string, wantContinue bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != "" && t.label != label {
			continue
		}
		if wantContinue {
			if t.continueTo != nil {
				return t.continueTo
			}
			continue
		}
		return t.breakTo
	}
	return b.exit // malformed input; degrade to "leaves the function"
}

func (b *builder) labelBlock(name string) *Block {
	if b.labelBlocks == nil {
		b.labelBlocks = make(map[string]*Block)
	}
	if blk, ok := b.labelBlocks[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labelBlocks[name] = blk
	return blk
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.cur
		then := b.newBlock()
		after := b.newBlock()
		b.edge(head, then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock()
			b.edge(head, els)
		} else {
			b.edge(head, after)
		}
		b.cur = then
		b.stmts(s.Body.List)
		b.edge(b.cur, after)
		if els != nil {
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, after)
		}
		b.edge(head, body)
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			continueTo = post
		}
		b.targets = append(b.targets, target{label: label, breakTo: after, continueTo: continueTo})
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, continueTo)
		b.targets = b.targets[:len(b.targets)-1]
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		// The range statement itself sits in the head so transfer
		// functions see the Key/Value (re)definitions once per entry.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.targets = append(b.targets, target{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, head)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		label := b.takeLabel()
		var bodyList []ast.Stmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			if s.Init != nil {
				b.stmt(s.Init)
			}
			b.add(s.Tag)
			bodyList = s.Body.List
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				b.stmt(s.Init)
			}
			b.add(s.Assign)
			bodyList = s.Body.List
		}
		head := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, target{label: label, breakTo: after})
		clauses := make([]*Block, len(bodyList))
		for i := range bodyList {
			clauses[i] = b.newBlock()
		}
		hasDefault := false
		for i, cs := range bodyList {
			cc := cs.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			b.edge(head, clauses[i])
			b.cur = clauses[i]
			for _, e := range cc.List {
				b.add(e)
			}
			prev := b.fallthroughTo
			if i+1 < len(clauses) {
				b.fallthroughTo = clauses[i+1]
			} else {
				b.fallthroughTo = after
			}
			b.stmts(cc.Body)
			b.fallthroughTo = prev
			b.edge(b.cur, after)
		}
		if !hasDefault {
			b.edge(head, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, target{label: label, breakTo: after})
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			clause := b.newBlock()
			b.edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmts(cc.Body)
			b.edge(b.cur, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.exit)
		b.dead()

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			b.edge(b.cur, b.findTarget(label, false))
			b.dead()
		case token.CONTINUE:
			b.edge(b.cur, b.findTarget(label, true))
			b.dead()
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(label))
			b.dead()
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edge(b.cur, b.fallthroughTo)
			}
			b.dead()
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			b.edge(b.cur, b.exit)
			b.dead()
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, DeferStmt,
		// GoStmt: straight-line nodes.
		b.add(s)
	}
}

// isPanic reports whether e is a call to the panic builtin, which
// terminates the path. (Calls to os.Exit and log.Fatal are left as
// ordinary nodes: treating them as terminators needs type info the
// builder deliberately does not require.)
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
