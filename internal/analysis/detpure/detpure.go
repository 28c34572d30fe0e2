// Package detpure enforces the determinism invariant: packages whose
// behavior must replay bit-identically (the Datalog engine, the provenance
// graph, shard execution in simnet, core replay) must not observe wall
// clocks or global randomness — neither directly nor through anything they
// call.
//
// The analyzer computes, for every function in every analyzed package, an
// "impure" fact: the function directly calls a banned root (time.Now,
// time.Since, time.Until, a package-level math/rand or crypto/rand
// function) or calls a function already known impure. Facts flow across
// package boundaries because the driver analyzes dependencies first, so
// impurity established in an allowlisted package (transport wall-clock
// deadlines, say) still flags the deterministic caller that reaches it.
//
// Wall-clock use inside non-deterministic packages (live, transport,
// supervisor, eval benchmarking) is fine and produces no diagnostic — only
// packages listed in Deterministic are held to the invariant. A site in a
// deterministic package that is genuinely metric-only can carry
// "//snpvet:allow detpure <reason>"; the allow also stops propagation, so
// callers of the containing function are not flagged transitively.
//
// Calls through interfaces and function values are invisible to the
// analyzer: injecting a clock behind an interface is exactly the
// sanctioned pattern (simnet hands core a simulated clock), so dynamic
// dispatch is the escape the design intends, not a hole.
package detpure

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Deterministic lists import-path prefixes of packages held to the
// determinism invariant. The driver uses these repo defaults; tests
// override.
var Deterministic = []string{
	"repro/internal/dlog",
	"repro/internal/provgraph",
	"repro/internal/simnet",
	"repro/internal/core",
	"repro/internal/seclog",
	"repro/internal/wire",
	"repro/internal/types",
	"repro/internal/cryptoutil",
	"repro/internal/workload",
	"repro/internal/apps",
}

// Impure is the fact exported for functions that can reach a banned root.
// Chain is the call path from the function to the root, e.g.
// ["transport.dialBackoff", "time.Now"].
type Impure struct {
	Chain []string
}

// AFact marks Impure as a fact.
func (*Impure) AFact() {}

// Analyzer is the detpure analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detpure",
	Doc:  "forbid wall-clock and global-randomness reads reachable from deterministic packages",
	Run:  run,
}

// bannedRoot reports why obj is a nondeterminism root ("" if it is not).
func bannedRoot(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	// Only package-level functions: methods like (*rand.Rand).Intn on an
	// explicitly seeded generator are deterministic and fine.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		// Constructors taking an explicit seed or source are the
		// sanctioned deterministic API; everything else at package level
		// draws from the global, runtime-seeded generator.
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return ""
		}
		return fn.Pkg().Path() + "." + fn.Name()
	case "crypto/rand":
		return "crypto/rand." + fn.Name()
	}
	return ""
}

func isDeterministic(path string) bool {
	for _, p := range Deterministic {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

const maxChain = 6

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Collect function declarations with their objects.
	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fnDecl{obj, fd})
			}
		}
	}

	// impureChain answers whether a callee is known impure, from this
	// package's fixpoint state or a dependency's exported fact.
	local := map[*types.Func][]string{}
	impureChain := func(fn *types.Func) ([]string, bool) {
		if c, ok := local[fn]; ok {
			return c, true
		}
		var fact Impure
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Chain, true
		}
		return nil, false
	}

	// Fixpoint over same-package calls: a package's functions can call
	// each other in any order, so iterate until no new impurity appears.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if _, done := local[fn.obj]; done {
				continue
			}
			chain := impurityOf(pass, fn.decl, impureChain)
			if chain != nil {
				local[fn.obj] = chain
				changed = true
			}
		}
	}
	for fn, chain := range local {
		pass.ExportObjectFact(fn, &Impure{Chain: chain})
	}

	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}

	// Deterministic package: report each site that introduces
	// nondeterminism — a direct banned call, or a call into an impure
	// function of a NON-deterministic package (roots inside deterministic
	// packages are already reported where they occur, so flagging their
	// callers would only repeat the same finding up the call graph).
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.Callee(info, call)
			if callee == nil || analysis.IsAbstractMethod(callee) {
				return true
			}
			// Report unconditionally; the driver files allowed sites under
			// its suppression report rather than dropping them silently.
			if root := bannedRoot(callee); root != "" {
				pass.Reportf(call.Pos(), "call to %s in deterministic package %s; inject a clock or a seeded rng instead", root, pass.Pkg.Path())
				return true
			}
			if callee.Pkg() == nil || callee.Pkg() == pass.Pkg || isDeterministic(callee.Pkg().Path()) {
				return true
			}
			if chain, ok := impureChain(callee); ok {
				pass.Reportf(call.Pos(), "call to %s reaches %s (%s) from deterministic package %s",
					fullName(callee), chain[len(chain)-1], strings.Join(append([]string{fullName(callee)}, chain...), " -> "), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// impurityOf scans one function body for impurity, returning the call
// chain to a banned root, or nil. Suppressed root calls do not taint: the
// written reason asserts the site never feeds replayed state.
func impurityOf(pass *analysis.Pass, decl *ast.FuncDecl, impureChain func(*types.Func) ([]string, bool)) []string {
	var found []string
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.Callee(pass.TypesInfo, call)
		if callee == nil || analysis.IsAbstractMethod(callee) {
			return true
		}
		if root := bannedRoot(callee); root != "" {
			if pass.Suppressed(call.Pos()) {
				return true
			}
			found = []string{root}
			return false
		}
		if chain, ok := impureChain(callee); ok {
			if pass.Suppressed(call.Pos()) {
				return true
			}
			c := append([]string{fullName(callee)}, chain...)
			if len(c) > maxChain {
				c = c[:maxChain]
			}
			found = c
			return false
		}
		return true
	})
	return found
}

func fullName(fn *types.Func) string {
	name := fn.Name()
	if named := analysis.NamedReceiver(fn); named != nil {
		name = named.Obj().Name() + "." + name
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + name
	}
	return name
}
