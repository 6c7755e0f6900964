// Command memlint runs the simulator-specific static analysis suite
// over Go packages: simdeterminism, errdrop, ctxflow and lintdirective
// (see internal/lint and DESIGN.md §9).
//
// Usage:
//
//	go run ./cmd/memlint ./...
//
// prints one line per finding (file:line:col: message (analyzer)) and
// exits 1 when anything is found, 0 when the tree is clean, 2 on an
// internal error. All matched packages are analyzed together, so the
// interprocedural analyzers (errdrop, ctxflow) see the whole module.
//
// False positives are suppressed in source with
// `//lint:ignore <analyzer> <reason>`; an unexplained directive is
// itself flagged by the lintdirective analyzer.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"memsim/internal/lint"
	"memsim/internal/lint/analysis"
	"memsim/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("memlint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: memlint [packages]")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, a := range lint.Suite() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld := loader.New(".")
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memlint:", err)
		return 2
	}
	// All matched packages form one Module, giving errdrop and
	// ctxflow their whole-program view: function summaries that
	// cross package boundaries.
	mod := analysis.NewModule(pkgs)
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(mod, pkg, lint.Suite())
		if err != nil {
			fmt.Fprintln(os.Stderr, "memlint:", err)
			return 2
		}
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", ld.Fset().Position(d.Pos), d.Message, d.Analyzer)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "memlint: %d finding(s)\n", found)
		return 1
	}
	return 0
}
