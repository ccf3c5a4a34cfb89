// Package lint is the phaselint registry: the one place the suite's
// analyzers are enumerated. cmd/phaselint and the clean-module self-test
// both consume Suite(), so adding an analyzer here is what puts it in
// front of CI — there is no second list to forget to update (the
// registry-coverage test in suite_test.go checks this directory against
// Suite() to make sure of it).
package lint

import (
	"regionmon/internal/lint/analysis"
	"regionmon/internal/lint/boundedstate"
	"regionmon/internal/lint/determinism"
	"regionmon/internal/lint/hotpath"
	"regionmon/internal/lint/singleowner"
	"regionmon/internal/lint/snapshotsafe"
)

// Suite returns the analyzers phaselint runs, with determinism scoped to
// the packages whose outputs the experiment harness asserts byte-stable:
// the facade, internal detectors/pipeline, and the CLIs that print
// reports. examples/ are excluded — they are documentation, free to print
// timings.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		singleowner.Analyzer,
		determinism.NewAnalyzer(
			"regionmon",
			"regionmon/internal/...",
			"regionmon/cmd/...",
		),
		hotpath.Analyzer,
		snapshotsafe.Analyzer,
		boundedstate.Analyzer,
	}
}
