// Package snapshotsafe turns the snapshot fork-equality tests into a
// compile-time completeness check: every type that participates in the
// checkpoint contract — it implements AppendSnapshot/StageSnapshot or
// Snapshot/Restore, or its declaration is marked //lint:snapshot — must
// account for every struct field. A field is accounted for when it is
// referenced on both the encode path and the decode path (the method body
// or anything it statically calls), or when it is explicitly annotated
// //lint:config (configuration fixed at construction time, deliberately
// not serialized). The failure mode this catches is "added a field, forgot
// the snapshot": fork-equality tests only see it when the field happens to
// vary between fork and original, while this check fires on every build.
//
// Also reported: asymmetric pairs (a type with AppendSnapshot but no
// StageSnapshot, or Snapshot without Restore) — half a checkpoint
// contract is a restore that silently loses state.
//
// Types marked //lint:snapshot without their own method pair (plain data
// structs serialized field-by-field inside an owner's snapshot methods,
// like region.Region inside Monitor's) are checked against the union of
// every pair closure in their package.
//
// Escapes: //lint:config on a field; //lint:allow snapshotsafe on a
// flagged line or on a method's doc comment (which also stops the
// traversal into it, mirroring hotpath's cold-path convention).
package snapshotsafe

import (
	"go/ast"
	"go/types"
	"sort"

	"regionmon/internal/lint/analysis"
)

const name = "snapshotsafe"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "every field of a snapshotting type must be referenced on both the encode and decode paths or be marked //lint:config",
	Run:  run,
}

// pairNames lists each encode method with its decode partner, in the
// order the checks run.
var pairNames = [...]struct{ enc, dec string }{
	{"AppendSnapshot", "StageSnapshot"},
	{"Snapshot", "Restore"},
}

// snapMethods is one type's snapshot-contract methods by name.
type snapMethods map[string]*types.Func

func run(pass *analysis.Pass) error {
	ix := analysis.IndexFuncs(pass.Fset, pass.Module)
	config := analysis.MarkedFields(pass.Fset, pass.Module, "config")
	marked := analysis.MarkedTypes(pass.Fset, pass.Module, "snapshot")

	byType := collectSnapMethods(pass)
	typeNames := make([]*types.TypeName, 0, len(byType))
	for tn := range byType {
		typeNames = append(typeNames, tn)
	}
	sort.Slice(typeNames, func(i, j int) bool { return typeNames[i].Pos() < typeNames[j].Pos() })

	refs := newRefCache(ix)
	// Union closures across the package's pairs, for //lint:snapshot types
	// serialized by an owner's methods rather than their own.
	pkgEnc := make(map[*types.Var]bool)
	pkgDec := make(map[*types.Var]bool)
	hasPair := false

	for _, tn := range typeNames {
		m := byType[tn]
		var encRoots, decRoots []*types.Func
		for _, p := range pairNames {
			switch {
			case m[p.enc] != nil && m[p.dec] == nil:
				pass.Reportf(m[p.enc].Pos(), "%s.%s has %s but no %s: half a checkpoint contract", tn.Pkg().Name(), tn.Name(), p.enc, p.dec)
			case m[p.enc] == nil && m[p.dec] != nil:
				pass.Reportf(m[p.dec].Pos(), "%s.%s has %s but no %s: half a checkpoint contract", tn.Pkg().Name(), tn.Name(), p.dec, p.enc)
			case m[p.enc] != nil:
				encRoots = append(encRoots, m[p.enc])
				decRoots = append(decRoots, m[p.dec])
			}
		}
		if len(encRoots) == 0 {
			continue
		}
		hasPair = true
		enc := refs.closure(encRoots)
		dec := refs.closure(decRoots)
		for v := range enc {
			pkgEnc[v] = true
		}
		for v := range dec {
			pkgDec[v] = true
		}
		checkFields(pass, tn, enc, dec, config)
	}

	// //lint:snapshot types in this package without their own pair.
	var orphans []*types.TypeName
	for tn := range marked {
		if tn.Pkg() != pass.Pkg.Types {
			continue
		}
		if m := byType[tn]; m != nil && (m["AppendSnapshot"] != nil || m["Snapshot"] != nil) {
			continue // has its own pair; already checked above
		}
		orphans = append(orphans, tn)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Pos() < orphans[j].Pos() })
	for _, tn := range orphans {
		if !hasPair {
			pass.Reportf(tn.Pos(), "%s marked //lint:snapshot but package %s defines no snapshot method pair to serialize it", tn.Name(), pass.Pkg.Types.Name())
			continue
		}
		checkFields(pass, tn, pkgEnc, pkgDec, config)
	}
	return nil
}

// collectSnapMethods groups this package's snapshot-contract methods by
// receiver type.
func collectSnapMethods(pass *analysis.Pass) map[*types.TypeName]snapMethods {
	interesting := map[string]bool{}
	for _, p := range pairNames {
		interesting[p.enc], interesting[p.dec] = true, true
	}
	out := make(map[*types.TypeName]snapMethods)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !interesting[fd.Name.Name] {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			tn := analysis.NamedOrPointee(fn.Type().(*types.Signature).Recv().Type())
			if tn == nil {
				continue
			}
			if out[tn] == nil {
				out[tn] = make(snapMethods)
			}
			out[tn][fd.Name.Name] = fn
		}
	}
	return out
}

// checkFields verifies every field of tn's struct against the encode and
// decode reference sets.
func checkFields(pass *analysis.Pass, tn *types.TypeName, enc, dec map[*types.Var]bool, config map[*types.Var]bool) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		if config[v] {
			continue
		}
		inEnc, inDec := enc[v], dec[v]
		switch {
		case !inEnc && !inDec:
			pass.Reportf(v.Pos(), "field %s.%s is on neither snapshot path: serialize it or mark it //lint:config", tn.Name(), v.Name())
		case !inEnc:
			pass.Reportf(v.Pos(), "field %s.%s is restored but never encoded: the snapshot is incomplete", tn.Name(), v.Name())
		case !inDec:
			pass.Reportf(v.Pos(), "field %s.%s is encoded but never restored: a restore silently loses it", tn.Name(), v.Name())
		}
	}
}

// refCache memoizes per-function field-reference sets and assembles
// closure unions over the static call graph.
type refCache struct {
	ix    *analysis.FuncIndex
	perFn map[*types.Func]map[*types.Var]bool
}

func newRefCache(ix *analysis.FuncIndex) *refCache {
	return &refCache{ix: ix, perFn: make(map[*types.Func]map[*types.Var]bool)}
}

// closure unions the field references of every function statically
// reachable from the roots. Traversal stops at functions whose doc allows
// this analyzer.
func (rc *refCache) closure(roots []*types.Func) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for fn := range rc.ix.Reachable(roots, name, nil) {
		for v := range rc.fieldRefs(fn) {
			out[v] = true
		}
	}
	return out
}

// fieldRefs collects every struct field referenced in fn's body: selector
// idents, struct-literal keys — anything the type checker resolves to a
// field *types.Var.
func (rc *refCache) fieldRefs(fn *types.Func) map[*types.Var]bool {
	if refs, ok := rc.perFn[fn]; ok {
		return refs
	}
	refs := make(map[*types.Var]bool)
	rc.perFn[fn] = refs
	fd, ok := rc.ix.Decl(fn)
	if !ok {
		return refs
	}
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := fd.Pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
			refs[v] = true
		}
		return true
	})
	return refs
}
