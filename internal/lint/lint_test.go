package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"memsim/internal/lint"
	"memsim/internal/lint/analysis"
)

// parse builds an analysis.Package from an in-memory source file. The
// directive and lintdirective plumbing only needs syntax, so a bare
// types.Package stands in for full type information.
func parse(t *testing.T, src string) (*token.FileSet, *analysis.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing fixture source: %v", err)
	}
	return fset, &analysis.Package{
		PkgPath:   "d",
		Fset:      fset,
		Files:     []*ast.File{f},
		Types:     types.NewPackage("d", "d"),
		TypesInfo: &types.Info{},
	}
}

// run applies analyzers to pkg alone.
func run(pkg *analysis.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	return analysis.RunPackage(analysis.NewModule([]*analysis.Package{pkg}), pkg, analyzers)
}

// probe reports every short variable declaration, giving the
// suppression tests a predictable diagnostic to aim directives at.
var probe = &analysis.Analyzer{
	Name: "probe",
	Doc:  "test probe: report every := statement",
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
					pass.Reportf(as.Pos(), "short variable declaration")
				}
				return true
			})
		}
		return nil, nil
	},
}

func TestSuite(t *testing.T) {
	want := []string{"simdeterminism", "errdrop", "ctxflow", "lintdirective"}
	suite := lint.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	const src = `package d

func f() int {
	a := 1
	//lint:ignore probe testing the own-line placement
	b := 2
	c := 3 //lint:ignore probe testing the trailing placement
	//lint:ignore errdrop directive for a different analyzer
	d := 4
	//lint:ignore all testing the wildcard
	e := 5
	return a + b + c + d + e
}
`
	fset, pkg := parse(t, src)
	diags, err := run(pkg, []*analysis.Analyzer{probe})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var lines []int
	for _, d := range diags {
		lines = append(lines, fset.Position(d.Pos).Line)
	}
	// a := 1 (line 4) has no directive; d := 4 (line 9) is covered only
	// by a directive naming a different analyzer. b, c, and e are
	// suppressed.
	if len(lines) != 2 || lines[0] != 4 || lines[1] != 9 {
		t.Fatalf("diagnostics on lines %v, want [4 9]; diags: %v", lines, diags)
	}
}

func TestBareDirectiveIsFlagged(t *testing.T) {
	const src = `package d

//lint:ignore probe a well-formed directive on a declaration
var a = 1

//lint:ignore probe
var b = 2

//lint:ignore
var c = 3

//lint:ignored directives with a mangled prefix are also malformed
var d = 4
`
	fset, pkg := parse(t, src)
	diags, err := run(pkg, []*analysis.Analyzer{analysis.Lintdirective})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var lines []int
	for _, d := range diags {
		if !strings.Contains(d.Message, "malformed //lint:ignore directive") {
			t.Errorf("unexpected message %q", d.Message)
		}
		lines = append(lines, fset.Position(d.Pos).Line)
	}
	// The directive missing its reason (line 6), the empty directive
	// (line 9), and the mangled prefix (line 12) are flagged; the
	// well-formed one (line 3) is not.
	if len(lines) != 3 || lines[0] != 6 || lines[1] != 9 || lines[2] != 12 {
		t.Fatalf("malformed-directive diagnostics on lines %v, want [6 9 12]", lines)
	}
}

func TestUnusedDirectiveAudit(t *testing.T) {
	const src = `package d

//lint:ignore probe this one suppresses the := below
var used = func() int { a := 1; return a }()

//lint:ignore probe nothing on this line produces a diagnostic
var unused = 2

//lint:ignore notrun analyzers outside this run cannot be judged
var other = 3

//lint:ignore lintdirective the unused suppression below is deliberate
//lint:ignore probe kept deliberately
var kept = 4
`
	fset, pkg := parse(t, src)
	diags, err := run(pkg, []*analysis.Analyzer{probe, analysis.Lintdirective})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var lines []int
	for _, d := range diags {
		if !strings.Contains(d.Message, "unused //lint:ignore directive") {
			t.Errorf("unexpected message %q", d.Message)
		}
		lines = append(lines, fset.Position(d.Pos).Line)
	}
	// Only the directive on line 6 is flagged: line 3 suppressed a real
	// probe diagnostic, line 9 names an analyzer that did not run, and
	// line 13's audit finding is itself suppressed by line 12 — which
	// makes line 12 used (the two-round rule).
	if len(lines) != 1 || lines[0] != 6 {
		t.Fatalf("unused-directive diagnostics on lines %v, want [6]; diags: %v", lines, diags)
	}
}

func TestMalformedDirectiveSuppressesNothing(t *testing.T) {
	const src = `package d

func f() int {
	//lint:ignore probe
	a := 1
	return a
}
`
	_, pkg := parse(t, src)
	diags, err := run(pkg, []*analysis.Analyzer{probe})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: a directive without a reason must not suppress", len(diags))
	}
}
