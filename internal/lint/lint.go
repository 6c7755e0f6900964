// Package lint assembles the memlint analyzer suite. Each analyzer
// stays in the suite only while it catches a realistic production
// mutation that the tests miss (cmd/memlint's TestSeededMutations
// seeds one per analyzer):
//
//   - simdeterminism: map iteration, wall-clock time, global rand and
//     goroutines that break bit-identical replay;
//   - errdrop: discarded must-check errors, through any chain of
//     wrappers (CFG taint over internal/lint/dataflow);
//   - ctxflow: a fresh Background/TODO context passed on while a
//     received ctx is in scope (CFG taint over internal/lint/dataflow);
//
// plus the lintdirective check that keeps the //lint:ignore escape
// hatch honest. cmd/memlint runs the suite over the whole module;
// DESIGN.md §9 documents each invariant.
package lint

import (
	"memsim/internal/lint/analysis"
	"memsim/internal/lint/analyzers/ctxflow"
	"memsim/internal/lint/analyzers/errdrop"
	"memsim/internal/lint/analyzers/simdeterminism"
)

// Suite returns the full analyzer suite in the order diagnostics are
// attributed. The order is stable so output is reproducible.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdeterminism.Analyzer,
		errdrop.Analyzer,
		ctxflow.Analyzer,
		analysis.Lintdirective,
	}
}
