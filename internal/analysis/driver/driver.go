// Package driver runs a suite of analyzers over a package set, honoring
// the //snpvet:allow suppression protocol and reporting every suppression
// it honored — the CI job surfaces that report, so each escape hatch stays
// a written, reviewable decision rather than a silent hole in an
// invariant.
//
// Suppression protocol: a comment of the form
//
//	//snpvet:allow <analyzer> <reason>
//
// suppresses that analyzer's diagnostics on the same line and on the line
// immediately following (so the comment can ride at the end of the
// offending line or stand on its own line above it). The reason is
// mandatory; a reasonless allow is itself a finding. So is a stale allow
// that no diagnostic matched — suppressions must die with the code they
// excused.
package driver

import (
	"fmt"
	"go/token"
	"io"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// A Finding is one unsuppressed diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// A Suppression is one //snpvet:allow comment.
type Suppression struct {
	File     string
	Line     int
	Analyzer string
	Reason   string
	Used     bool
}

// A Result is the outcome of one driver run.
type Result struct {
	// Findings are unsuppressed diagnostics plus protocol violations
	// (reasonless or stale allows). Non-empty Findings is a failed run.
	Findings []Finding
	// Suppressed are diagnostics an allow comment excused.
	Suppressed []Finding
	// Suppressions are all allow comments seen, for the CI report.
	Suppressions []*Suppression
}

// Run loads patterns (relative to dir) and applies every analyzer, in
// package-dependency order so exported facts precede their importers.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) (*Result, error) {
	res, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunLoaded(res, analyzers)
}

var allowRe = regexp.MustCompile(`^//snpvet:allow\s+([A-Za-z0-9_]+)(?:\s+(.*\S))?\s*$`)

// RunLoaded applies analyzers to an already-loaded package set.
func RunLoaded(loaded *load.Result, analyzers []*analysis.Analyzer) (*Result, error) {
	out := &Result{}
	facts := analysis.NewFactStore()

	// Scan suppression comments. Keyed by file, line, analyzer.
	sups := map[string]map[int]map[string]*Suppression{}
	for _, pkg := range loaded.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						if strings.HasPrefix(c.Text, "//snpvet:") {
							out.Findings = append(out.Findings, Finding{
								Analyzer: "snpvet",
								Pos:      loaded.Fset.Position(c.Pos()),
								Message:  fmt.Sprintf("malformed suppression %q (want //snpvet:allow <analyzer> <reason>)", c.Text),
							})
						}
						continue
					}
					pos := loaded.Fset.Position(c.Pos())
					s := &Suppression{File: pos.Filename, Line: pos.Line, Analyzer: m[1], Reason: m[2]}
					if s.Reason == "" {
						out.Findings = append(out.Findings, Finding{
							Analyzer: "snpvet",
							Pos:      pos,
							Message:  fmt.Sprintf("suppression of %s without a reason; every allow must say why", s.Analyzer),
						})
						continue
					}
					if sups[s.File] == nil {
						sups[s.File] = map[int]map[string]*Suppression{}
					}
					if sups[s.File][s.Line] == nil {
						sups[s.File][s.Line] = map[string]*Suppression{}
					}
					sups[s.File][s.Line][s.Analyzer] = s
					out.Suppressions = append(out.Suppressions, s)
				}
			}
		}
	}

	// lookup finds an allow for analyzer at pos: on the same line, or on
	// the line above (standalone comment). It marks the allow used.
	lookup := func(analyzer string, pos token.Position) *Suppression {
		for _, line := range []int{pos.Line, pos.Line - 1} {
			if s := sups[pos.Filename][line][analyzer]; s != nil {
				s.Used = true
				return s
			}
		}
		return nil
	}

	for _, pkg := range loaded.Pkgs {
		for _, a := range analyzers {
			a := a
			report := func(d analysis.Diagnostic) {
				f := Finding{Analyzer: a.Name, Pos: d.Pos, Message: d.Message}
				if lookup(a.Name, d.Pos) != nil {
					out.Suppressed = append(out.Suppressed, f)
					return
				}
				out.Findings = append(out.Findings, f)
			}
			suppressed := func(pos token.Position) bool {
				return lookup(a.Name, pos) != nil
			}
			pass := analysis.NewPass(a, loaded.Fset, pkg.Files, pkg.Types, pkg.Info,
				facts, report, suppressed)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("driver: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}

	// A suppression nothing matched is dead weight that would silently
	// excuse the next real violation on that line.
	for _, s := range out.Suppressions {
		if !s.Used {
			out.Findings = append(out.Findings, Finding{
				Analyzer: "snpvet",
				Pos:      token.Position{Filename: s.File, Line: s.Line},
				Message:  fmt.Sprintf("stale suppression of %s (no diagnostic here); remove it", s.Analyzer),
			})
		}
	}

	sortFindings(out.Findings)
	sortFindings(out.Suppressed)
	sort.Slice(out.Suppressions, func(i, j int) bool {
		a, b := out.Suppressions[i], out.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Report writes the human-readable run report: findings (if any), then the
// suppression report CI surfaces.
func (r *Result) Report(w io.Writer) {
	for _, f := range r.Findings {
		fmt.Fprintln(w, f)
	}
	if len(r.Suppressions) > 0 {
		fmt.Fprintf(w, "snp-vet: %d suppression(s) in effect:\n", len(r.Suppressions))
		for _, s := range r.Suppressions {
			fmt.Fprintf(w, "  %s:%d: %s: %s\n", s.File, s.Line, s.Analyzer, s.Reason)
		}
	}
	if len(r.Findings) == 0 {
		fmt.Fprintln(w, "snp-vet: clean")
	} else {
		fmt.Fprintf(w, "snp-vet: %d finding(s)\n", len(r.Findings))
	}
}
