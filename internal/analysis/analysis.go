// Package analysis is a self-contained static-analysis framework modeled on
// golang.org/x/tools/go/analysis, reimplemented on the standard library's
// go/ast and go/types so the repository carries no external dependency.
//
// The repo's detection guarantee (§4.2) rests on three cross-cutting
// invariants that are invisible to the type system:
//
//   - determinism: replay must be bit-identical, so deterministic packages
//     must not read wall clocks or global randomness (analyzer detpure);
//   - bounded decoding: an allocation sized by a wire-decoded integer must
//     be validated against the input that carries it (analyzer boundedmake);
//   - no panics on audit paths: hostile input surfaces as errors, never as
//     a crash of the auditing process (analyzer nopanic).
//
// Analyzers implement the same shape as upstream go/analysis: a Run
// function over a Pass, diagnostics reported by position, and facts
// attached to objects so properties (like impurity) propagate across
// package boundaries when packages are analyzed in dependency order.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //snpvet:allow suppression comments. It must be a valid Go
	// identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Reportf; cross-package state through the fact API.
	Run func(*Pass) error
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// A Pass is one application of one analyzer to one package. The driver
// constructs passes in dependency order, so facts exported while analyzing
// a package's imports are visible via ImportObjectFact.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives every diagnostic (the driver filters
	// suppressions); suppressed answers whether a position carries a
	// matching //snpvet:allow comment, marking it used.
	report     func(Diagnostic)
	suppressed func(pos token.Position) bool

	facts *FactStore
}

// NewPass assembles a pass. report must be non-nil; suppressed and facts
// may be nil (no suppressions honored, facts disabled).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, facts *FactStore, report func(Diagnostic), suppressed func(token.Position) bool) *Pass {
	return &Pass{
		Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		facts: facts, report: report, suppressed: suppressed,
	}
}

// Reportf emits a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether pos carries an //snpvet:allow comment naming
// this analyzer, and marks that suppression as used. Analyzers consult it
// when a suppression must do more than hide a diagnostic — e.g. detpure
// stops impurity propagation at an allowed call site, so callers of the
// containing function are not flagged transitively.
func (p *Pass) Suppressed(pos token.Pos) bool {
	if p.suppressed == nil {
		return false
	}
	return p.suppressed(p.Fset.Position(pos))
}

// A Fact is a property attached to a package-level object. Implementations
// must be pointer types.
type Fact interface {
	AFact() // marker, as in upstream go/analysis
}

// ExportObjectFact attaches fact to obj under this analyzer's namespace.
// obj must be a package-level object or a method of a package-level type.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts != nil {
		p.facts.setObject(p.Analyzer.Name, obj, fact)
	}
}

// ImportObjectFact copies the fact attached to obj (by this analyzer, in
// this pass or an earlier dependency pass) into fact, reporting whether one
// existed. fact must be a pointer of the exported fact's type.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.getObject(p.Analyzer.Name, obj, fact)
}
