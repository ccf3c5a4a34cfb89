// Package boundedstate turns the soak harness's bounded-memory invariant
// into a compile-time check: a long-lived detector must not accumulate
// unbounded history, or always-on monitoring (the paper's premise) leaks
// until the host process dies. Concretely: slice and map fields in the
// state closure of any detector type — a type with an ObserveInterval,
// ObserveBatch, or ProcessOverflow method, plus everything its fields
// transitively reach — may not grow on the monitoring hot path. Growth
// sites flagged: `append` rooted at such a field, and map-index writes to
// one, inside any function statically reachable from the three entry
// methods.
//
// The detector type usually lives *downstream* of the state it borrows
// (region.Monitor's closure includes stats scratch buffers), so each pass
// walks every module detector's field-type closure to find the growable
// fields — wherever they are declared — and then fires on growth sites in
// its own package.
//
// Escapes:
//
//   - //lint:bounded on a field: growth is bounded by construction
//     (ring buffers like stats.Window.buf, scratch reused via [:0],
//     per-interval report lists whose size is capped by the region set);
//   - //lint:allow boundedstate on a function's doc comment: the walk
//     neither checks nor traverses it (declared cold or bounded-by-design
//     sub-paths, mirroring hotpath's convention);
//   - Snapshot/Restore/AppendSnapshot/StageSnapshot are cold by
//     contract and never traversed — restore legitimately rebuilds state
//     slices.
package boundedstate

import (
	"go/ast"
	"go/types"

	"regionmon/internal/lint/analysis"
)

const name = "boundedstate"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "slice/map fields reachable from detector state may not grow on the monitoring hot path; bound them or mark //lint:bounded",
	Run:  run,
}

// rootNames are the detector entry points whose call graphs constitute
// the monitoring hot path.
var rootNames = map[string]bool{
	"ObserveInterval": true,
	"ObserveBatch":    true,
	"ProcessOverflow": true,
}

// coldNames are checkpointing methods, cold by contract: restore
// legitimately rebuilds state slices.
var coldNames = map[string]bool{
	"Snapshot":       true,
	"Restore":        true,
	"AppendSnapshot": true,
	"StageSnapshot":  true,
}

// stateField describes a slice or map field in some detector's state
// closure, for diagnostics.
type stateField struct {
	// owner is the package-qualified struct declaring the field.
	owner string
	// detector is the lexically first detector type whose state closure
	// reaches the field.
	detector string
}

// stateFields walks the state closure of every detector type — the
// receiver base types of the root methods — and returns each growable
// field not marked //lint:bounded.
func stateFields(pass *analysis.Pass, roots []*types.Func) map[*types.Var]stateField {
	w := &walker{
		bounded: analysis.MarkedFields(pass.Fset, pass.Module, "bounded"),
		module:  make(map[*types.Package]bool, len(pass.Module)),
		fields:  make(map[*types.Var]stateField),
	}
	for _, pkg := range pass.Module {
		w.module[pkg.Types] = true
	}
	seen := make(map[*types.TypeName]bool)
	for _, fn := range roots {
		tn := analysis.NamedOrPointee(fn.Type().(*types.Signature).Recv().Type())
		if tn == nil || seen[tn] {
			continue
		}
		seen[tn] = true
		w.detector = tn.Pkg().Name() + "." + tn.Name()
		w.visited = make(map[*types.Named]bool)
		w.walkType(tn.Type())
	}
	return w.fields
}

// walker accumulates detector state closures.
type walker struct {
	bounded  map[*types.Var]bool
	module   map[*types.Package]bool
	fields   map[*types.Var]stateField
	detector string
	visited  map[*types.Named]bool
}

// walkType descends through pointers, containers, and module-local named
// structs, recording growable fields as it goes.
func (w *walker) walkType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Pointer:
		w.walkType(t.Elem())
	case *types.Slice:
		w.walkType(t.Elem())
	case *types.Array:
		w.walkType(t.Elem())
	case *types.Map:
		w.walkType(t.Key())
		w.walkType(t.Elem())
	case *types.Named:
		tn := t.Obj()
		if tn.Pkg() == nil || !w.module[tn.Pkg()] || w.visited[t] {
			return
		}
		w.visited[t] = true
		if st, ok := t.Underlying().(*types.Struct); ok {
			owner := tn.Pkg().Name() + "." + tn.Name()
			for i := 0; i < st.NumFields(); i++ {
				w.walkField(owner, st.Field(i))
			}
		}
	}
}

// walkField records the field if it is growable, keeping the lexically
// smallest detector label when several closures reach it, then descends
// into its type.
func (w *walker) walkField(owner string, v *types.Var) {
	switch types.Unalias(v.Type()).Underlying().(type) {
	case *types.Slice, *types.Map:
		if prev, ok := w.fields[v]; !w.bounded[v] && (!ok || w.detector < prev.detector) {
			w.fields[v] = stateField{owner: owner, detector: w.detector}
		}
	}
	w.walkType(v.Type())
}

func run(pass *analysis.Pass) error {
	ix := analysis.IndexFuncs(pass.Fset, pass.Module)
	roots := ix.Methods(func(n string) bool { return rootNames[n] })
	state := stateFields(pass, roots)
	for fn, via := range ix.Reachable(roots, name, coldNames) {
		fd, ok := ix.Decl(fn)
		if !ok || fd.Pkg != pass.Pkg {
			continue
		}
		checkBody(pass, state, fd, via)
	}
	return nil
}

// checkBody flags growth sites on state fields in one hot-reachable
// function.
func checkBody(pass *analysis.Pass, state map[*types.Var]stateField, fd analysis.FuncDecl, via string) {
	info := fd.Pkg.Info
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if v, sf, ok := lookupField(state, info, n.Args[0]); ok {
						pass.Reportf(n.Pos(), "append grows detector state field %s.%s (state of %s, reachable from %s); bound it like stats.Window or mark the field //lint:bounded", sf.owner, v.Name(), sf.detector, via)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkMapWrite(pass, state, info, lhs, via)
			}
		case *ast.IncDecStmt:
			checkMapWrite(pass, state, info, n.X, via)
		}
		return true
	})
}

// checkMapWrite flags an index write to a state map field (writes to an
// existing slice index don't grow anything and pass).
func checkMapWrite(pass *analysis.Pass, state map[*types.Var]stateField, info *types.Info, lhs ast.Expr, via string) {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	v, sf, ok := lookupField(state, info, ix.X)
	if !ok {
		return
	}
	if _, isMap := types.Unalias(v.Type()).Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(lhs.Pos(), "map write grows detector state field %s.%s (state of %s, reachable from %s); bound it or mark the field //lint:bounded", sf.owner, v.Name(), sf.detector, via)
}

// lookupField resolves an expression to a detector state field, peeling
// reslices (s.buf[:0]) and parens.
func lookupField(state map[*types.Var]stateField, info *types.Info, e ast.Expr) (*types.Var, stateField, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok {
				if sf, ok := state[v]; ok {
					return v, sf, true
				}
			}
			return nil, stateField{}, false
		default:
			return nil, stateField{}, false
		}
	}
}
