package driver_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/load"
)

// testAn reports a diagnostic at every function declaration, giving the
// suppression protocol something predictable to act on.
var testAn = &analysis.Analyzer{
	Name: "testan",
	Doc:  "reports every function declaration (test fixture)",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "function %s", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

const src = `package p

func bad() {} //snpvet:allow testan excused inline with a reason

//snpvet:allow testan excused from the line above
func alsoExcused() {}

func caught() {}

//snpvet:allow testan
func reasonless() {}

//snpvet:allow testan nothing on the next line ever triggers
var stale int

//snpvet:frobnicate
var malformed int
`

func runOn(t *testing.T, source string) *driver.Result {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", source, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{}
	tpkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &load.Result{Fset: fset, Pkgs: []*load.Package{{
		Path: "p", Filenames: []string{"p.go"}, Files: []*ast.File{f},
		Types: tpkg, Info: info,
	}}}
	res, err := driver.RunLoaded(loaded, []*analysis.Analyzer{testAn})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSuppressionProtocol(t *testing.T) {
	res := runOn(t, src)

	// Same-line and line-above allows suppress; both must be marked used.
	if len(res.Suppressed) != 2 {
		t.Errorf("suppressed = %v, want 2 (bad, alsoExcused)", res.Suppressed)
	}
	if len(res.Suppressions) != 3 {
		t.Errorf("suppressions registered = %d, want 3 (two used, one stale)", len(res.Suppressions))
	}

	type wantFinding struct {
		analyzer string
		substr   string
	}
	wants := []wantFinding{
		{"testan", "function caught"},
		{"snpvet", "without a reason"},
		{"testan", "function reasonless"}, // a reasonless allow suppresses nothing
		{"snpvet", "stale suppression of testan"},
		{"snpvet", "malformed suppression"},
	}
	if len(res.Findings) != len(wants) {
		t.Fatalf("findings = %v, want %d", res.Findings, len(wants))
	}
	for _, w := range wants {
		found := false
		for _, f := range res.Findings {
			if f.Analyzer == w.analyzer && strings.Contains(f.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s finding containing %q in %v", w.analyzer, w.substr, res.Findings)
		}
	}
}

func TestReportSurfacesSuppressions(t *testing.T) {
	res := runOn(t, `package p

//snpvet:allow testan documented escape hatch
func excused() {}
`)
	if len(res.Findings) != 0 {
		t.Fatalf("findings = %v, want none", res.Findings)
	}
	var buf strings.Builder
	res.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "1 suppression(s) in effect") {
		t.Errorf("report does not surface the suppression list:\n%s", out)
	}
	if !strings.Contains(out, "documented escape hatch") {
		t.Errorf("report does not include the written reason:\n%s", out)
	}
	if !strings.Contains(out, "snp-vet: clean") {
		t.Errorf("report does not declare a clean run:\n%s", out)
	}
}
