// Package analysistest runs an analyzer over testdata trees and checks its
// diagnostics against // want comments, mirroring the upstream x/tools
// package of the same name.
//
// Layout: <testdata>/src is a module of its own (a two-line go.mod), loaded
// by the loader cmd/snp-vet uses, so its packages import each other by
// <module>/<dir> and the standard library as usual. A module named repro can
// carry a stub of repro/internal/wire under internal/wire that stands in for
// the real one.
//
// Expectations ride on the offending line:
//
//	xs := make([]T, n) // want `sized by wire-decoded integer`
//
// Each finding must match one want (same file and line, regexp matches the
// message) and each want must be consumed. Suppression comments
// (//snpvet:allow) behave exactly as under cmd/snp-vet, because the run
// goes through the same driver.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/load"
)

// Run loads the named packages of the testdata module (directories under
// <testdata>/src) and what they import, applies the analyzer through the
// standard driver, and reports any mismatch against // want comments as
// test errors. It returns the driver result for extra assertions
// (suppression reports).
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) *driver.Result {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, p := range pkgs {
		patterns[i] = "./" + p
	}
	loaded, err := load.Load(filepath.Join(testdata, "src"), patterns...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.RunLoaded(loaded, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, loaded, res)
	return res
}

type wantKey struct {
	file string
	line int
}

var wantRe = regexp.MustCompile("// want (.*)$")
var wantTokRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// checkWants matches findings against want comments.
func checkWants(t *testing.T, loaded *load.Result, res *driver.Result) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, pkg := range loaded.Pkgs {
		for i, name := range pkg.Filenames {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			_ = pkg.Files[i]
			for ln, text := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				for _, tok := range wantTokRe.FindAllStringSubmatch(m[1], -1) {
					pat := tok[1]
					if pat == "" {
						pat = tok[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", name, ln+1, pat, err)
					}
					k := wantKey{name, ln + 1}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	for _, f := range res.Findings {
		k := wantKey{f.Pos.Filename, f.Pos.Line}
		idx := -1
		for i, re := range wants[k] {
			if re.MatchString(f.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[k] = append(wants[k][:idx], wants[k][idx+1:]...)
	}
	var keys []wantKey
	for k, res := range wants {
		if len(res) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range wants[k] {
			t.Errorf("%s:%d: no finding matched want %q", k.file, k.line, re)
		}
	}
}
