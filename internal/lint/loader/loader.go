// Package loader loads the module's packages — parsed syntax plus full
// go/types information — for the phaselint analyzers.
//
// The repo deliberately has no third-party dependencies, so this is a
// small, self-contained stand-in for golang.org/x/tools/go/packages: it
// discovers packages by walking the module tree (the same set `./...`
// names), parses them with go/parser, and type-checks them with go/types.
// Imports inside the module resolve recursively through the same loader;
// standard-library imports resolve through the compiler's source importer,
// which type-checks GOROOT sources and therefore needs neither a network
// connection nor prebuilt export data.
package loader

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's import path within the module (or the
	// synthetic path given to LoadDirs).
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// Name is the package name (clause name, e.g. "main").
	Name string
	// FileNames lists the parsed files, parallel to Files.
	FileNames []string
	// Files holds the parsed syntax trees, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's per-node facts.
	Info *types.Info
}

// Program is a load result: every requested package plus the shared
// position table.
type Program struct {
	// Fset is the position table shared by all packages (module and
	// source-imported standard library alike).
	Fset *token.FileSet
	// Packages holds the module's packages in import-path order.
	Packages []*Package
	// ModulePath is the module path from go.mod ("" for LoadDirs).
	ModulePath string
}

// entry is one discovered-but-not-yet-checked package directory.
type entry struct {
	importPath string
	dir        string
	fileNames  []string
	files      []*ast.File
}

// loadState drives recursive type checking; it doubles as the
// types.Importer handed to the checker.
type loadState struct {
	fset     *token.FileSet
	entries  map[string]*entry // import path -> module package
	checked  map[string]*Package
	checking map[string]bool // cycle guard
	std      types.Importer  // GOROOT source importer
}

// Import implements types.Importer: module packages are checked
// recursively, everything else is delegated to the source importer.
func (ls *loadState) Import(path string) (*types.Package, error) {
	if e, ok := ls.entries[path]; ok {
		pkg, err := ls.check(e)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ls.std.Import(path)
}

// check type-checks one module package (memoized).
func (ls *loadState) check(e *entry) (*Package, error) {
	if p, ok := ls.checked[e.importPath]; ok {
		return p, nil
	}
	if ls.checking[e.importPath] {
		return nil, fmt.Errorf("loader: import cycle through %s", e.importPath)
	}
	ls.checking[e.importPath] = true
	defer delete(ls.checking, e.importPath)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: ls}
	tpkg, err := cfg.Check(e.importPath, ls.fset, e.files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", e.importPath, err)
	}
	p := &Package{
		ImportPath: e.importPath,
		Dir:        e.dir,
		Name:       e.files[0].Name.Name,
		FileNames:  e.fileNames,
		Files:      e.files,
		Types:      tpkg,
		Info:       info,
	}
	ls.checked[e.importPath] = p
	return p, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks upward from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("loader: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("loader: no module directive in %s/go.mod", root)
	}
	return string(m[1]), nil
}

// skipDir reports whether a directory is outside `./...` (hidden,
// underscore-prefixed, or testdata).
func skipDir(name string) bool {
	return name != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata")
}

// buildTagOK evaluates the file's //go:build constraint (if any) the way
// `go build` would on this platform: GOOS, GOARCH, and the gc toolchain
// tag are satisfied, anything else — custom tags, other platforms — is
// not. Files excluded here (e.g. a linux-only syscall shim on another
// GOOS, or an `ignore`-tagged generator) would otherwise break type
// checking with duplicate or unresolvable declarations.
func buildTagOK(f *ast.File) bool {
	for _, cg := range f.Comments {
		// Constraints must precede the package clause.
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: let the type checker complain
			}
			if !expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc"
			}) {
				return false
			}
		}
	}
	return true
}

// LoadModule discovers and type-checks every package under the module at
// root — the same set `go build ./...` would cover, test files excluded.
func LoadModule(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	entries := make(map[string]*entry)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("loader: %w", err)
		}
		if !buildTagOK(file) {
			return nil
		}
		e := entries[importPath]
		if e == nil {
			e = &entry{importPath: importPath, dir: dir}
			entries[importPath] = e
		}
		e.fileNames = append(e.fileNames, path)
		e.files = append(e.files, file)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return checkAll(fset, entries, modPath)
}

// LoadDirs loads several packages laid out GOPATH-style — each import
// path p's sources live at srcRoot/p — and type-checks them together, so
// testdata packages may import one another by those synthetic paths (the
// cross-package fixtures an analyzer like boundedstate needs: a declaring
// package holds the state, a consuming package reaches it).
func LoadDirs(srcRoot string, importPaths []string) (*Program, error) {
	fset := token.NewFileSet()
	entries := make(map[string]*entry, len(importPaths))
	for _, p := range importPaths {
		if _, dup := entries[p]; dup {
			return nil, fmt.Errorf("loader: duplicate import path %s", p)
		}
		e, err := dirEntry(fset, filepath.Join(srcRoot, filepath.FromSlash(p)), p)
		if err != nil {
			return nil, err
		}
		entries[p] = e
	}
	return checkAll(fset, entries, "")
}

// dirEntry parses one directory's non-test, build-tag-satisfying files.
func dirEntry(fset *token.FileSet, dir, importPath string) (*entry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	e := &entry{importPath: importPath, dir: dir}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		if !buildTagOK(file) {
			continue
		}
		e.fileNames = append(e.fileNames, name)
		e.files = append(e.files, file)
	}
	if len(e.files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	return e, nil
}

// checkAll type-checks every discovered entry and assembles the Program.
func checkAll(fset *token.FileSet, entries map[string]*entry, modPath string) (*Program, error) {
	ls := &loadState{
		fset:     fset,
		entries:  entries,
		checked:  make(map[string]*Package),
		checking: make(map[string]bool),
		std:      importer.ForCompiler(fset, "source", nil),
	}
	paths := make([]string, 0, len(entries))
	for p := range entries {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	prog := &Program{Fset: fset, ModulePath: modPath}
	for _, p := range paths {
		pkg, err := ls.check(entries[p])
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}
