// Package determinism enforces the sweep runners' byte-identical-results
// contract inside the deterministic packages: simulation and experiment
// code must not read the wall clock, must not draw from the global
// (unseeded) math/rand generators, and must not let map iteration order
// leak into ordered result slices.
//
// Three checks:
//
//  1. wall clock — calls to time.Now, time.Since or time.Until. The
//     intentional timing sites (Figure 15's cost measurement, the
//     commands' timing lines on stderr) carry //lint:allow determinism.
//  2. global RNG — package-level math/rand and math/rand/v2 draw
//     functions (rand.Int, rand.Float64, rand.Shuffle, …). Seeded
//     *rand.Rand values constructed with rand.New(rand.NewPCG(seed, …))
//     are the approved pattern and are not flagged; neither are the
//     constructors themselves.
//  3. map-order leaks — a `for … range m` over a map whose body appends
//     to a slice accumulates elements in nondeterministic order. The
//     established idiom — collect then sort — is recognised: when the
//     enclosing function also passes the same slice to a sort.* or
//     slices.* call, the loop is not flagged. Slices declared inside the
//     loop body (per-iteration worklists) are exempt too.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"regionmon/internal/lint/analysis"
)

// wallClockFuncs are the time package's wall-clock reads.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are math/rand functions that build seeded state rather
// than drawing from the global generator.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// NewAnalyzer returns a determinism analyzer scoped to packages whose
// import path matches one of the given patterns: an exact path, or a
// prefix written "path/...".
func NewAnalyzer(patterns ...string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, global math/rand draws, and map-order-dependent result building in deterministic packages",
		Run:  func(pass *analysis.Pass) error { return run(pass, patterns) },
	}
}

// matches reports whether path is covered by the pattern list.
func matches(path string, patterns []string) bool {
	for _, p := range patterns {
		if prefix, ok := strings.CutSuffix(p, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass, patterns []string) error {
	if !matches(pass.Pkg.ImportPath, patterns) {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	sorted := sortedIdents(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, n, sorted)
		}
		return true
	})
}

// checkCall flags wall-clock reads and global-RNG draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Float64) are seeded state: fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in deterministic package %s (seed simulated time instead, or annotate an intentional timing site with //lint:allow determinism)",
				fn.Name(), pass.Pkg.ImportPath)
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global math/rand draw rand.%s in deterministic package %s; use a seeded *rand.Rand (rand.New(rand.NewPCG(seed, …)))",
				fn.Name(), pass.Pkg.ImportPath)
		}
	}
}

// checkMapRange flags `for … range m` over a map whose body appends to a
// slice that the enclosing function never sorts.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) == 0 {
			return true
		}
		dst := rootIdent(call.Args[0])
		if dst == nil {
			return true
		}
		obj := pass.Pkg.Info.Uses[dst]
		if obj == nil || sorted[obj] {
			return true
		}
		if obj.Pos() >= rng.Body.Pos() && obj.Pos() < rng.Body.End() {
			// Declared inside the loop body: per-iteration scratch (a
			// worklist, say), not a cross-iteration ordered accumulation.
			return true
		}
		pass.Reportf(call.Pos(),
			"append to %s inside map iteration feeds an ordered slice from nondeterministic map order; sort the result (or iterate sorted keys)",
			dst.Name)
		return true
	})
}

// sortedIdents collects objects passed to sort.* / slices.* calls within
// fd — the collect-then-sort idiom's evidence.
func sortedIdents(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
			for _, arg := range call.Args {
				if id := rootIdent(arg); id != nil {
					if obj := pass.Pkg.Info.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// rootIdent unwraps selectors/indexes/unary ops to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
