// Package analysis is the phaselint analyzer framework: a deliberately
// small, dependency-free mirror of the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic), plus the comment-directive
// machinery the suite's allowlists are built on.
//
// Directives recognised module-wide:
//
//	//lint:single-owner         on a type declaration: values of the type
//	                            must stay confined to one goroutine
//	                            (enforced by the singleowner analyzer).
//	//lint:allow <name> [why]   on or immediately above a flagged line, or
//	                            in the doc comment of the enclosing
//	                            function: suppress the named analyzer
//	                            there. On a function's doc comment the
//	                            hotpath analyzer additionally treats the
//	                            whole function as a cold sub-path and does
//	                            not traverse into it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"regionmon/internal/lint/loader"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// directives.
	Name string
	// Doc describes what the analyzer enforces.
	Doc string
	// Run analyzes one package.
	Run func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message describes it.
	Message string
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset is the shared position table.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *loader.Package
	// Module holds every module package (for analyzers needing
	// cross-package context: marked types, static call graphs).
	Module []*loader.Package

	report func(Diagnostic)
}

// Report records a diagnostic (dropped by the runner when an
// //lint:allow directive covers it).
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding pairs a diagnostic with the analyzer that produced it.
type Finding struct {
	Analyzer   *Analyzer
	Diagnostic Diagnostic
}

// Run applies every analyzer to every package — packages in import-path
// order, the suite's analyzers in order within each — and returns the
// surviving findings sorted by position. It stops at the first analyzer
// error. //lint:allow directives are honoured here, centrally, so
// individual analyzers never re-implement suppression.
func Run(prog *loader.Program, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range prog.Packages {
		allow := newAllowIndex(prog.Fset, pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, Module: prog.Packages}
			pass.report = func(d Diagnostic) {
				if !allow.allowed(a.Name, d.Pos) {
					findings = append(findings, Finding{Analyzer: a, Diagnostic: d})
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		pi := prog.Fset.Position(findings[i].Diagnostic.Pos)
		pj := prog.Fset.Position(findings[j].Diagnostic.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return findings, nil
}

// directive is one parsed //lint: comment.
type directive struct {
	verb string // "allow", "single-owner", "config", ...
	args []string
	line int
}

// parseDirective extracts a //lint: directive from one comment line.
func parseDirective(text string) (directive, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "lint:") {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, "lint:")
	// Anything after " -- " is a human-readable reason.
	if i := strings.Index(rest, " -- "); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return directive{}, false
	}
	return directive{verb: fields[0], args: fields[1:]}, true
}

// commentDirectives yields every //lint: directive in a comment group.
func commentDirectives(fset *token.FileSet, cg *ast.CommentGroup) []directive {
	if cg == nil {
		return nil
	}
	var out []directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c.Text); ok {
			d.line = fset.Position(c.Pos()).Line
			out = append(out, d)
		}
	}
	return out
}

// allowIndex answers "is this analyzer allowed at this position" for one
// package: a set of (analyzer, file, line) keys from inline comments plus
// the doc-directives of enclosing functions.
type allowIndex struct {
	fset    *token.FileSet
	pkg     *loader.Package
	lineSet map[string]bool // keyed "analyzer\x00file:line"
}

func lineKey(pos token.Position) string { return fmt.Sprintf("%s:%d", pos.Filename, pos.Line) }

func newAllowIndex(fset *token.FileSet, pkg *loader.Package) *allowIndex {
	ai := &allowIndex{fset: fset, pkg: pkg, lineSet: make(map[string]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, d := range commentDirectives(fset, cg) {
				if d.verb != "allow" {
					continue
				}
				for _, name := range d.args {
					pos := fset.Position(cg.Pos())
					// The directive covers its own line and, when it
					// stands alone above a statement, the following one;
					// recording both lets it be written either trailing
					// or preceding the flagged construct.
					ai.lineSet[name+"\x00"+lineKey(token.Position{Filename: pos.Filename, Line: d.line})] = true
					ai.lineSet[name+"\x00"+lineKey(token.Position{Filename: pos.Filename, Line: d.line + 1})] = true
				}
			}
		}
	}
	return ai
}

func (ai *allowIndex) allowed(analyzer string, pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	p := ai.fset.Position(pos)
	if ai.lineSet[analyzer+"\x00"+lineKey(p)] {
		return true
	}
	// Function-level allow: the enclosing FuncDecl's doc comment.
	for _, f := range ai.pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !(fd.Pos() <= pos && pos <= fd.End()) {
					continue
				}
				if FuncAllows(ai.fset, fd, analyzer) {
					return true
				}
			}
		}
	}
	return false
}

// FuncAllows reports whether fn's doc comment carries
// //lint:allow <analyzer>.
func FuncAllows(fset *token.FileSet, fn *ast.FuncDecl, analyzer string) bool {
	for _, d := range commentDirectives(fset, fn.Doc) {
		if d.verb == "allow" {
			for _, a := range d.args {
				if a == analyzer {
					return true
				}
			}
		}
	}
	return false
}

// MarkedTypes scans every module package for type declarations whose doc
// comment carries the given //lint:<verb> directive and returns their
// *types.TypeName objects (e.g. verb "single-owner" or "snapshot").
func MarkedTypes(fset *token.FileSet, module []*loader.Package, verb string) map[*types.TypeName]bool {
	marked := make(map[*types.TypeName]bool)
	for _, pkg := range module {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if hasVerb(fset, gd.Doc, verb) || hasVerb(fset, ts.Doc, verb) || hasVerb(fset, ts.Comment, verb) {
						if obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							marked[obj] = true
						}
					}
				}
			}
		}
	}
	return marked
}

// MarkedFields scans every module package for struct fields whose doc or
// trailing line comment carries the given //lint:<verb> directive and
// returns their *types.Var objects (e.g. verb "config" or "bounded").
// Embedded fields are matched through their type name.
func MarkedFields(fset *token.FileSet, module []*loader.Package, verb string) map[*types.Var]bool {
	marked := make(map[*types.Var]bool)
	for _, pkg := range module {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					if !hasVerb(fset, field.Doc, verb) && !hasVerb(fset, field.Comment, verb) {
						continue
					}
					for _, name := range field.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							marked[v] = true
						}
					}
					if len(field.Names) == 0 { // embedded field
						if id := embeddedIdent(field.Type); id != nil {
							if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
								marked[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return marked
}

// embeddedIdent returns the name ident of an embedded field's type
// expression (unwrapping pointers and package qualifiers).
func embeddedIdent(expr ast.Expr) *ast.Ident {
	switch e := expr.(type) {
	case *ast.Ident:
		return e
	case *ast.StarExpr:
		return embeddedIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

func hasVerb(fset *token.FileSet, cg *ast.CommentGroup, verb string) bool {
	for _, d := range commentDirectives(fset, cg) {
		if d.verb == verb {
			return true
		}
	}
	return false
}

// NamedOrPointee unwraps one level of pointer and reports the named type's
// TypeName, or nil. Aliases are resolved through types.Unalias.
func NamedOrPointee(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
