// Package lint assembles the memlint analyzer suite, one analyzer per
// bug class: the simulator-specific static checks (determinism, stats
// wiring) that go vet cannot express, the CFG/dataflow analyzers built
// on internal/lint/dataflow (concurrency boundaries, context
// propagation, time units and scheduler deadlines, error dropping
// through any chain of wrappers; DESIGN.md §14), plus the
// lintdirective check that keeps the //lint:ignore escape hatch
// honest. cmd/memlint runs the suite over the whole module; DESIGN.md
// §9 documents each invariant.
package lint

import (
	"memsim/internal/lint/analysis"
	"memsim/internal/lint/analyzers/atomiccross"
	"memsim/internal/lint/analyzers/ctxflow"
	"memsim/internal/lint/analyzers/errdrop"
	"memsim/internal/lint/analyzers/simdeterminism"
	"memsim/internal/lint/analyzers/statreg"
	"memsim/internal/lint/analyzers/unitflow"
)

// Suite returns the full analyzer suite in the order diagnostics are
// attributed. The order is stable so output is reproducible.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdeterminism.Analyzer,
		errdrop.Analyzer,
		statreg.Analyzer,
		atomiccross.Analyzer,
		ctxflow.Analyzer,
		unitflow.Analyzer,
		analysis.Lintdirective,
	}
}
