// Package analysistest runs a phaselint analyzer over a golden-file test
// package and checks its diagnostics against // want "rx" comments — the
// same convention as golang.org/x/tools/go/analysis/analysistest, scoped
// down to what the suite needs: each test package lives under
// <analyzer>/testdata/src/<pkg>, imports only the standard library, and
// annotates every line expected to be flagged with one or more
//
//	// want "regexp"
//
// comments. The harness fails the test when an expected diagnostic is
// missing, an unexpected one appears, or a message does not match its
// pattern.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"regionmon/internal/lint/analysis"
	"regionmon/internal/lint/loader"
)

var wantRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

// expectation is one // want pattern with its location.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkg> for every named package relative to dir,
// type-checks them together (later packages may import earlier ones by
// their bare names — how boundedstate gets its cross-package fixture),
// applies the analyzer, and compares diagnostics against the packages'
// // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	if len(pkgs) == 0 {
		t.Fatal("analysistest.Run: no test packages named")
	}
	src := filepath.Join(dir, "testdata", "src")
	prog, err := loader.LoadDirs(src, pkgs)
	if err != nil {
		t.Fatalf("load %s %v: %v", src, pkgs, err)
	}
	expects := collectWants(t, prog)
	findings, err := analysis.Run(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for _, f := range findings {
		pos := prog.Fset.Position(f.Diagnostic.Pos)
		if !matchExpect(expects, pos, f.Diagnostic.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, f.Diagnostic.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(e.file), e.line, e.rx)
		}
	}
}

// collectWants parses every // want comment in the loaded package.
func collectWants(t *testing.T, prog *loader.Program) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					out = append(out, parseWants(t, prog.Fset, c)...)
				}
			}
		}
	}
	return out
}

func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	m := wantRe.FindStringSubmatch(c.Text)
	if m == nil {
		return nil
	}
	pos := fset.Position(c.Pos())
	var out []*expectation
	for _, q := range splitQuoted(m[1]) {
		pat, err := unquote(q)
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
		}
		rx, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
	}
	return out
}

// splitQuoted splits a run of quoted strings: `"a" "b"` -> [`"a"`, `"b"`].
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for len(s) > 0 {
		if s[0] != '"' {
			break
		}
		i := 1
		for i < len(s) {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			break
		}
		out = append(out, s[:i+1])
		s = strings.TrimSpace(s[i+1:])
	}
	return out
}

func unquote(q string) (string, error) {
	if len(q) < 2 || q[0] != '"' || q[len(q)-1] != '"' {
		return "", fmt.Errorf("not a quoted string")
	}
	body := q[1 : len(q)-1]
	return strings.ReplaceAll(strings.ReplaceAll(body, `\"`, `"`), `\\`, `\`), nil
}

func matchExpect(expects []*expectation, pos token.Position, msg string) bool {
	for _, e := range expects {
		if e.matched || e.file != pos.Filename || e.line != pos.Line {
			continue
		}
		if e.rx.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}
