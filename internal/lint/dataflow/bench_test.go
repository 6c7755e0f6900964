package dataflow_test

import (
	"go/ast"
	"testing"

	"memsim/internal/lint/dataflow"
)

// benchSrc is a fixed workload with the shapes the real analyses
// traverse: branches, loops, switches, closures and defers.
const benchSrc = `package p

type svc struct{ n, m int }

func (s *svc) work(xs []int) int {
	total := 0
	for i, x := range xs {
		if x%2 == 0 {
			total += x
		} else {
			for j := 0; j < i; j++ {
				total -= j
			}
		}
	}
	switch {
	case total < 0:
		total = -total
	case total == 0:
		return 1
	}
	return total
}

func (s *svc) spawn(xs []int) {
	go func() { s.n = s.work(xs) }()
	defer func() { s.m++ }()
	apply(xs, func(x int) int { return x + s.n })
}

func apply(xs []int, f func(int) int) {
	for i, x := range xs {
		xs[i] = f(x)
	}
}
`

// BenchmarkForward measures CFG construction plus one fixpoint solve
// per function, the per-function cost of the dataflow analyzers.
func BenchmarkForward(b *testing.B) {
	pkg := checkPkg(b, benchSrc)
	var bodies []*ast.BlockStmt
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				bodies = append(bodies, fd.Body)
			}
		}
	}
	fl := dataflow.Flow{
		Join: func(a, c dataflow.Fact) dataflow.Fact {
			return max(a.(int), c.(int))
		},
		// The cap keeps the lattice finite so loops reach a fixpoint,
		// mirroring the bounded facts the real analyzers carry.
		Transfer: func(n ast.Node, in dataflow.Fact) dataflow.Fact {
			return min(in.(int)+1, 1<<10)
		},
		Equal: func(a, c dataflow.Fact) bool { return a.(int) == c.(int) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			cfg := dataflow.New(body)
			if out := cfg.Forward(0, fl); len(out) != len(cfg.Blocks) {
				b.Fatal("short solve")
			}
		}
	}
}
