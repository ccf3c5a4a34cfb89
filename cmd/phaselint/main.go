// Command phaselint runs the repo's contract analyzers over the module:
//
//   - singleowner: values of //lint:single-owner types must not leak into
//     goroutines, channels, or package-level variables;
//   - determinism: no wall-clock reads, no global math/rand draws, and no
//     map-range iteration feeding ordered results in deterministic packages
//     (annotate intentional timing sites with //lint:allow determinism);
//   - hotpath: no allocating constructs in ObserveInterval/ProcessOverflow
//     or anything they statically call (Snapshot/Restore and the
//     AppendSnapshot/StageSnapshot pair are cold by contract and stop
//     the walk);
//   - snapshotsafe: every field of a snapshotting type is referenced on
//     both the encode and decode paths or marked //lint:config;
//   - boundedstate: slice/map fields in detector state closures may not
//     grow on the monitoring hot path unless marked //lint:bounded.
//
// The list itself lives in internal/lint.Suite(); this command and the
// clean-module self-test both consume it.
//
// Usage:
//
//	go run ./cmd/phaselint [./...]
//
// The only accepted package pattern is ./... (the whole module); the tool
// exists to hold the global invariants, so partial runs are not offered.
// The analysis wall time is reported on stderr. Exits 1 if any analyzer
// reports a finding, printing one `file:line:col: [analyzer] message`
// line per finding.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"regionmon/internal/lint"
	"regionmon/internal/lint/analysis"
	"regionmon/internal/lint/loader"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phaselint:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	for _, a := range args {
		if a != "./..." {
			return fmt.Errorf("unsupported argument %q (phaselint always checks the whole module; pass ./... or nothing)", a)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := loader.FindModuleRoot(wd)
	if err != nil {
		return err
	}
	prog, err := loader.LoadModule(root)
	if err != nil {
		return err
	}
	suite := lint.Suite()
	start := time.Now() //lint:allow determinism -- wall-time report, stderr only
	findings, err := analysis.Run(prog, suite)
	if err != nil {
		return err
	}
	elapsed := time.Since(start) //lint:allow determinism -- wall-time report, stderr only
	fmt.Fprintf(os.Stderr, "phaselint: %d analyzers × %d packages in %dms\n",
		len(suite), len(prog.Packages), elapsed.Milliseconds())

	for _, f := range findings {
		pos := prog.Fset.Position(f.Diagnostic.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", filepath.ToSlash(file), pos.Line, pos.Column, f.Analyzer.Name, f.Diagnostic.Message)
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d finding(s)", len(findings))
	}
	return nil
}
