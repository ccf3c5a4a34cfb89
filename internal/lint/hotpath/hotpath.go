// Package hotpath turns the repo's runtime allocation gates
// (TestSystemRunAllocs, pipeline's TestHotPathAllocs, ingest's
// TestFleetBatchAllocs) into a compile-time check: the monitoring hot
// path — every ObserveInterval / ProcessOverflow / ObserveBatch method,
// the batch-first ingest entries PushBatch / PushBatchWait, and
// everything those methods statically call within the module — must not
// contain allocating constructs. The paper's premise is that
// continuous monitoring is only viable because the per-interval work is
// cheap (ADORE's <1% overhead); a stray fmt.Sprintf or closure literal in
// an interval handler silently breaks that.
//
// The runtime gates measure steady intervals only. This check also
// covers the branches a steady interval never takes — an LPD or GPD state
// transition, a region prune — where an allocation fails no test.
//
// Flagged inside hot-path-reachable functions:
//
//   - function literals (closure allocation; build them once at
//     construction time instead);
//   - calls into package fmt (Sprintf and friends allocate);
//   - make(...), new(...), map and slice composite literals, and &T{}
//     (per-interval heap allocation; reuse scratch owned by the detector);
//   - append to a slice the function itself declared empty with no
//     capacity (un-preallocated accumulation; reuse a scratch field
//     sliced to [:0], or preallocate with a capacity).
//
// Deliberate escapes:
//
//   - constructs inside panic(...) arguments are ignored (failure paths
//     do not run per interval);
//   - a function whose doc comment carries //lint:allow hotpath is a
//     declared cold sub-path (e.g. region formation, which runs only when
//     the UCR trips the threshold): it is neither checked nor traversed;
//   - checkpointing methods — Snapshot, Restore, AppendSnapshot,
//     StageSnapshot — are cold by contract (they run at checkpoint
//     boundaries, never per interval) and the walk stops at them without
//     an annotation.
//
// Calls through interfaces or function values cannot be resolved
// statically and are not traversed — the runtime gates still cover those;
// this analyzer is the cheap always-on layer, not a replacement.
package hotpath

import (
	"go/ast"
	"go/types"

	"regionmon/internal/lint/analysis"
)

// rootNames are the hot-path entry points: the per-interval detector
// methods, the pipeline's batch entry, and the ingest producer's batch
// pushes (whose per-item forms are wrappers over them).
var rootNames = map[string]bool{
	"ObserveInterval": true,
	"ProcessOverflow": true,
	"ObserveBatch":    true,
	"PushBatch":       true,
	"PushBatchWait":   true,
}

// coldNames are checkpointing methods that are cold by contract: a
// Snapshot/Restore pair (and the nested AppendSnapshot/StageSnapshot of
// snap.Snapshotter) runs at checkpoint boundaries, never per interval,
// so reaching one from a hot-path method does not put its body on the
// hot path.
var coldNames = map[string]bool{
	"Snapshot":       true,
	"Restore":        true,
	"AppendSnapshot": true,
	"StageSnapshot":  true,
}

// Analyzer is the hotpath check.
const name = "hotpath"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "forbid allocating constructs in ObserveInterval/ProcessOverflow/ObserveBatch/PushBatch(Wait) and everything they statically call",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Index every module function once, then walk the static call graph
	// from the roots. Diagnostics are only emitted for functions declared
	// in the pass's own package, so the module-wide walk reports each
	// site exactly once across the whole run.
	ix := analysis.IndexFuncs(pass.Fset, pass.Module)
	roots := ix.Methods(func(n string) bool { return rootNames[n] })
	for fn, via := range ix.Reachable(roots, name, coldNames) {
		fd, ok := ix.Decl(fn)
		if !ok || fd.Pkg != pass.Pkg {
			continue
		}
		checkBody(pass, fd, via)
	}
	return nil
}

// checkBody flags allocating constructs in one reachable function.
func checkBody(pass *analysis.Pass, fd analysis.FuncDecl, via string) {
	info := fd.Pkg.Info
	emptyLocals := emptySliceLocals(info, fd.Decl)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				return false // failure path: not per-interval work
			}
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "make":
					pass.Reportf(n.Pos(), "make in monitoring hot path (reachable from %s); allocate once at construction time and reuse", via)
				case "new":
					pass.Reportf(n.Pos(), "new in monitoring hot path (reachable from %s); allocate once at construction time and reuse", via)
				case "append":
					if len(n.Args) > 0 {
						if id := appendTarget(n.Args[0]); id != nil {
							if obj := info.Uses[id]; obj != nil && emptyLocals[obj] {
								pass.Reportf(n.Pos(), "append to un-preallocated slice %s in monitoring hot path (reachable from %s); reuse a scratch field sliced to [:0] or preallocate with capacity", id.Name, via)
							}
						}
					}
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					pass.Reportf(n.Pos(), "fmt.%s allocates in monitoring hot path (reachable from %s)", fn.Name(), via)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal allocates in monitoring hot path (reachable from %s); build it once at construction time", via)
			return false // the literal's body is not itself hot-path code here
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch types.Unalias(tv.Type).Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "%s literal allocates in monitoring hot path (reachable from %s)", kindWord(tv.Type), via)
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal heap-allocates in monitoring hot path (reachable from %s); reuse detector-owned storage", via)
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Decl.Body, visit)
}

func kindWord(t types.Type) string {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Map:
		return "map"
	default:
		return "slice"
	}
}

// isPanicCall reports a call to the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// appendTarget unwraps the append destination to a plain identifier
// (selector-based targets — scratch fields — are exempt by design).
func appendTarget(e ast.Expr) *ast.Ident {
	if id, ok := e.(*ast.Ident); ok {
		return id
	}
	return nil
}

// emptySliceLocals collects local variables declared as empty slices with
// no capacity: `var s []T`, `s := []T{}`, `s := make([]T, 0)`.
func emptySliceLocals(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := info.Defs[name]; obj != nil && isSlice(obj.Type()) {
						out[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || !isSlice(obj.Type()) {
					continue
				}
				if emptySliceExpr(n.Rhs[i]) {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func isSlice(t types.Type) bool {
	_, ok := types.Unalias(t).Underlying().(*types.Slice)
	return ok
}

// emptySliceExpr matches `[]T{}` and `make([]T, 0)` (no capacity).
func emptySliceExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false
		}
		lit, ok := e.Args[1].(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	return false
}
