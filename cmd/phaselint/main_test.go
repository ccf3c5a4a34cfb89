package main

import (
	"testing"

	"regionmon/internal/lint"
	"regionmon/internal/lint/analysis"
	"regionmon/internal/lint/loader"
)

// TestModuleIsClean runs the full phaselint suite over the module and
// requires zero findings — the machine-checked form of the concurrency,
// determinism, hot-path, snapshot and bounded-state contracts the docs
// promise. The suite comes from the internal/lint registry, so a newly
// registered analyzer is covered here automatically.
func TestModuleIsClean(t *testing.T) {
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	suite := lint.Suite()
	if len(suite) < 5 {
		t.Fatalf("registry lists %d analyzers, want at least 5", len(suite))
	}
	findings, err := analysis.Run(prog, suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: [%s] %s", prog.Fset.Position(f.Diagnostic.Pos), f.Analyzer.Name, f.Diagnostic.Message)
	}
}

// TestRejectsPartialPatterns pins the ./...-only contract.
func TestRejectsPartialPatterns(t *testing.T) {
	if err := run([]string{"./internal/..."}); err == nil {
		t.Fatal("run accepted a partial package pattern; want an error")
	}
}
