// Package load type-checks Go packages for analysis without any dependency
// beyond the standard library and the go tool itself.
//
// Module packages are parsed and type-checked from source (so analyzers see
// ASTs with full type information), in dependency order, sharing one
// importer universe — a dependency's *types.Package is the same instance
// its importers resolve, which is what makes object-keyed facts work.
// Standard-library imports are satisfied from compiler export data located
// via `go list -export`, which works offline and for cgo packages.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked module package.
type Package struct {
	Path      string
	Dir       string
	Filenames []string
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// A Result holds every loaded module package, dependencies before
// dependents, plus the shared FileSet.
type Result struct {
	Fset *token.FileSet
	Pkgs []*Package
}

type listPkg struct {
	ImportPath string
	Export     string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	Module     *struct{ Path string }
}

// Load lists patterns with the go tool (run in dir), then type-checks every
// non-standard-library package in the listing from source. Test files are
// not loaded: the analyzers enforce invariants on shipped code.
func Load(dir string, patterns ...string) (*Result, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,CgoFiles,Standard,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	exports := map[string]string{}
	var mod []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			mod = append(mod, p)
		}
	}
	return check(mod, exports)
}

// check type-checks pkgs (which must be in dependency order) from source,
// resolving imports first from the already-checked set, then from export
// data.
func check(pkgs []*listPkg, exports map[string]string) (*Result, error) {
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	lookup := func(path string) (io.ReadCloser, error) {
		f := exports[path]
		if f == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	}
	gcImporter := importer.ForCompiler(fset, "gc", lookup)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp := checked[path]; tp != nil {
			return tp, nil
		}
		return gcImporter.Import(path)
	})

	res := &Result{Fset: fset}
	for _, p := range pkgs {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: package %s uses cgo; source analysis unsupported", p.ImportPath)
		}
		var (
			files []*ast.File
			names []string
		)
		for _, f := range p.GoFiles {
			name := filepath.Join(p.Dir, f)
			af, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("load: %v", err)
			}
			files = append(files, af)
			names = append(names, name)
		}
		tpkg, info, err := checkFiles(p.ImportPath, fset, files, imp)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tpkg
		res.Pkgs = append(res.Pkgs, &Package{
			Path: p.ImportPath, Dir: p.Dir, Filenames: names,
			Files: files, Types: tpkg, Info: info,
		})
	}
	return res, nil
}

// checkFiles type-checks one package's parsed files with a fully populated
// types.Info.
func checkFiles(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	conf := types.Config{Importer: imp}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("load: type-checking %s: %v", path, err)
	}
	return tpkg, info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
